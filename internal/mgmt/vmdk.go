// Package mgmt implements the paper's §5 storage-management layer:
// datastores and VMDKs, initial data placement (Eq. 4), imbalance
// detection and candidate selection (Eq. 5, threshold τ), the migration
// executor with I/O mirroring, per-block bitmap, and cost/benefit gating
// (Eq. 6–7), and the baseline schemes BASIL, Pesto, and LightSRM the
// paper compares against.
package mgmt

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/trace"
)

// BlockSize is the migration bitmap granularity (§5.2: 4 KB blocks).
const BlockSize = 4096

// VMDK is a virtual machine disk image placed on (at most) two datastores
// during migration. It satisfies workload.Target: application I/O routes
// through it, and during a lazy migration the per-block bitmap decides
// whether a block lives at the source or the destination (§5.2).
type VMDK struct {
	ID   int
	Size int64

	src *Datastore // current primary location
	dst *Datastore // destination while migrating (nil otherwise)

	srcBase int64 // byte offset of this VMDK's extent on src
	dstBase int64 // byte offset on dst while migrating

	// bitmap: 1 bit per block; set = block lives at the destination.
	bitmap    []uint64
	migrated  int64 // blocks currently at the destination
	mirroring bool  // writes redirect to the destination (I/O mirroring)
	aborting  bool  // migration is unwinding back to the source

	// Window activity counters (candidate selection reads these).
	windowRequests uint64
	windowBytes    int64
	totalRequests  uint64
	// lastMoveEpoch records when this VMDK last migrated (hysteresis).
	lastMoveEpoch uint64

	// jn is the migration journal while a journaled migration is open
	// (nil otherwise): bitmap changes made by application writes persist
	// a record before the write acks (DESIGN.md §13).
	jn *Journal
}

// newVMDK is created through Datastore.CreateVMDK / Manager.PlaceVMDK.
func newVMDK(id int, size int64, ds *Datastore, base int64) *VMDK {
	return &VMDK{ID: id, Size: size, src: ds, srcBase: base}
}

// Blocks returns the number of bitmap blocks covering the VMDK.
func (v *VMDK) Blocks() int64 { return (v.Size + BlockSize - 1) / BlockSize }

// Store returns the primary datastore.
func (v *VMDK) Store() *Datastore { return v.src }

// Migrating reports whether a migration is in progress.
func (v *VMDK) Migrating() bool { return v.dst != nil }

// MigratedBlocks returns how many blocks live at the destination.
func (v *VMDK) MigratedBlocks() int64 { return v.migrated }

// WindowRequests returns the request count since the last window reset.
func (v *VMDK) WindowRequests() uint64 { return v.windowRequests }

// resetWindow clears per-window activity.
func (v *VMDK) resetWindow() {
	v.windowRequests = 0
	v.windowBytes = 0
}

// beginMigration attaches the destination extent and bitmap.
func (v *VMDK) beginMigration(dst *Datastore, dstBase int64, mirroring bool) {
	v.dst = dst
	v.dstBase = dstBase
	v.bitmap = make([]uint64, (v.Blocks()+63)/64)
	v.migrated = 0
	v.mirroring = mirroring
}

// finishMigration commits the move: the destination becomes primary. The
// bitmap memory is released (§5.2: "this space is reclaimed when the
// migration is finished").
func (v *VMDK) finishMigration() {
	v.src = v.dst
	v.srcBase = v.dstBase
	v.dst = nil
	v.bitmap = nil
	v.migrated = 0
	v.mirroring = false
	v.aborting = false
}

// beginAbort starts unwinding the migration: mirroring stops (new writes
// land on the source, clearing their bitmap bits), and the copy engine
// walks migrated blocks back from the destination. The bitmap stays — it
// is exactly the record of which blocks must return.
func (v *VMDK) beginAbort() {
	v.mirroring = false
	v.aborting = true
}

// finishAbort drops destination state once every block is back on the
// source; the VMDK is fully consistent at its original location.
func (v *VMDK) finishAbort() {
	v.dst = nil
	v.bitmap = nil
	v.migrated = 0
	v.mirroring = false
	v.aborting = false
}

// Aborting reports whether the migration is unwinding.
func (v *VMDK) Aborting() bool { return v.aborting }

// blockMigrated reports whether block b lives at the destination.
func (v *VMDK) blockMigrated(b int64) bool {
	if v.bitmap == nil {
		return false
	}
	return v.bitmap[b/64]&(1<<(uint(b)%64)) != 0
}

// markMigrated sets block b as living at the destination.
func (v *VMDK) markMigrated(b int64) {
	if v.bitmap == nil {
		return
	}
	if !v.blockMigrated(b) {
		v.bitmap[b/64] |= 1 << (uint(b) % 64)
		v.migrated++
	}
}

// markUnmigrated clears block b back to source-resident (abort unwinding
// and abort-time writes use this).
func (v *VMDK) markUnmigrated(b int64) {
	if v.bitmap == nil {
		return
	}
	if v.blockMigrated(b) {
		v.bitmap[b/64] &^= 1 << (uint(b) % 64)
		v.migrated--
	}
}

// Submit implements workload.Target: routes the request to the datastore
// currently holding its blocks. Requests spanning the migration frontier
// split at block granularity; for simplicity a spanning request routes by
// its first block (requests are block-aligned in all provided workloads).
//
//lint:ack-path application-write completions ack to the workload; DESIGN.md §13 record-then-ack requires the epoch fence
func (v *VMDK) Submit(r *trace.IORequest, done device.Completion) {
	if v.windowRequests == 0 {
		// First activity this window: join the primary store's touched
		// list so the epoch resets it and balancing can select it.
		v.src.noteTouched(v)
	}
	v.windowRequests++
	v.windowBytes += r.Size
	v.totalRequests++
	r.VMDK = v.ID

	if v.dst == nil {
		v.forward(v.src, v.srcBase, r, done)
		return
	}
	block := r.Offset / BlockSize
	if v.aborting && r.Op == trace.OpWrite {
		// Abort unwinding: fresh writes land on the source and clear their
		// bitmap bits — the copy-back engine then has less to move, and the
		// source copy stays authoritative.
		last := (r.Offset + r.Size - 1) / BlockSize
		for b := block; b <= last && b < v.Blocks(); b++ {
			v.markUnmigrated(b)
		}
		v.forward(v.src, v.srcBase, r, v.guardAck(JournalRevert, block, last, done))
		return
	}
	if r.Op == trace.OpWrite && v.mirroring {
		// I/O mirroring: upcoming writes land at the new location,
		// marking their blocks migrated so no copy is needed (§5.2).
		last := (r.Offset + r.Size - 1) / BlockSize
		for b := block; b <= last && b < v.Blocks(); b++ {
			v.markMigrated(b)
		}
		v.forward(v.dst, v.dstBase, r, v.guardAck(JournalProgress, block, last, done))
		return
	}
	if v.blockMigrated(block) {
		v.forward(v.dst, v.dstBase, r, done)
		return
	}
	v.forward(v.src, v.srcBase, r, done)
}

// guardAck wraps a write completion with the record-then-ack protocol:
// on success a journal record covering blocks [first,last] persists
// before the ack reaches the application; if a crash fenced the VMDK's
// epoch in between, the write fails with ErrAckLost instead — recovery
// already rebuilt the bitmap without this write's marks, so acking it
// would advertise a block-location change that never became durable.
// With no journal bound (journal off, or no migration open) the
// completion passes through untouched.
func (v *VMDK) guardAck(kind JournalKind, first, last int64, done device.Completion) device.Completion {
	if v.jn == nil {
		return done
	}
	jn := v.jn
	ep := jn.Epoch(v.ID)
	if last >= v.Blocks() {
		last = v.Blocks() - 1
	}
	return func(c *trace.IORequest) {
		if c.Err == nil && !jn.AppendIfEpoch(ep, JournalRecord{
			Kind: kind, VMDK: v.ID, Block: first, Count: last - first + 1}) {
			c.Err = ErrAckLost
		}
		if done != nil {
			done(c)
		}
	}
}

// forward rebases the request onto the datastore extent and submits.
func (v *VMDK) forward(ds *Datastore, base int64, r *trace.IORequest, done device.Completion) {
	clone := *r
	clone.Offset = base + r.Offset
	ds.Submit(&clone, func(c *trace.IORequest) {
		r.Issue = c.Issue
		r.Complete = c.Complete
		r.Err = c.Err
		if done != nil {
			done(r)
		}
	})
}

// Barrier forwards to the primary datastore's device when supported.
func (v *VMDK) Barrier() {
	if bt, ok := v.src.Dev.(interface{ Barrier() }); ok {
		bt.Barrier()
	}
}

// String describes the VMDK.
func (v *VMDK) String() string {
	loc := v.src.Dev.Name()
	if v.dst != nil {
		loc = fmt.Sprintf("%s→%s (%d/%d blocks)", loc, v.dst.Dev.Name(), v.migrated, v.Blocks())
	}
	return fmt.Sprintf("vmdk%d[%s, %dMB]", v.ID, loc, v.Size>>20)
}

var _ interface {
	Submit(*trace.IORequest, device.Completion)
} = (*VMDK)(nil)
