package mgmt

import (
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Datastore abstracts one storage device as a placement target (§1:
// "storage resources are abstracted as data stores"): it owns the extent
// allocator, the per-device performance monitor, and the VMDKs resident
// on the device.
type Datastore struct {
	Dev  device.Device
	Mon  *perfmodel.Monitor
	Node int // owning server node (0 in single-node setups)

	vmdks      map[int]*VMDK
	nextOffset int64 //lint:guarded-by Datastore.allocExtent
	allocated  int64 //lint:guarded-by Datastore.allocExtent,Datastore.releaseExtent

	// touched lists the VMDKs with nonzero window counters, so window
	// resets and candidate selection cost O(active VMDKs), not O(resident
	// VMDKs).
	touched []*VMDK

	// Quarantine state (failure-aware management): a quarantined store is
	// excluded from placement and migration-candidate selection, and its
	// VMDKs are evacuated. cleanWindows counts consecutive error-free
	// epochs toward probation release.
	quarantined   bool
	quarantinedAt sim.Time
	cleanWindows  int

	// ewmaUS is the EWMA-smoothed decision latency of the last epoch
	// (Config.SmoothingAlpha); ewmaSet is false until the first epoch
	// observes the store.
	ewmaUS  float64
	ewmaSet bool
}

// NewDatastore wraps a device.
func NewDatastore(dev device.Device, node int) *Datastore {
	return &Datastore{
		Dev:   dev,
		Mon:   perfmodel.NewMonitor(dev),
		Node:  node,
		vmdks: make(map[int]*VMDK),
	}
}

// Submit forwards a device-offset request through the monitor.
func (d *Datastore) Submit(r *trace.IORequest, done device.Completion) {
	d.Mon.Submit(r, done)
}

// Quarantined reports whether the store is under failure quarantine.
func (d *Datastore) Quarantined() bool { return d.quarantined }

// QuarantinedAt returns when the current quarantine began (meaningless
// when not quarantined).
func (d *Datastore) QuarantinedAt() sim.Time { return d.quarantinedAt }

// Free returns unallocated capacity in bytes.
func (d *Datastore) Free() int64 { return d.Dev.Capacity() - d.allocated }

// Allocated returns bytes reserved by extents.
func (d *Datastore) Allocated() int64 { return d.allocated }

// VMDKs returns the resident VMDKs (primary placements only), ordered by
// ID so management decisions are deterministic.
func (d *Datastore) VMDKs() []*VMDK {
	out := make([]*VMDK, 0, len(d.vmdks))
	for _, v := range d.vmdks {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumVMDKs returns the resident count.
func (d *Datastore) NumVMDKs() int { return len(d.vmdks) }

// noteTouched registers a VMDK whose window counters just became
// nonzero. The VMDK joins its *primary* store's list even when the I/O
// itself routes to a migration destination (mirrored writes): candidate
// selection reads the VMDK's counters through its primary store.
func (d *Datastore) noteTouched(v *VMDK) {
	d.touched = append(d.touched, v)
}

// allocExtent reserves size bytes, returning the base offset.
func (d *Datastore) allocExtent(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("mgmt: non-positive extent size %d", size)
	}
	if d.Free() < size {
		return 0, fmt.Errorf("mgmt: datastore %s full (%d free, %d requested)",
			d.Dev.Name(), d.Free(), size)
	}
	base := d.nextOffset
	d.nextOffset += size
	d.allocated += size
	d.Dev.SetUsed(d.allocated)
	return base, nil
}

// releaseExtent returns size bytes to the pool. (The simple bump
// allocator does not reuse offsets; capacity accounting is what placement
// depends on.)
func (d *Datastore) releaseExtent(size int64) {
	d.allocated -= size
	if d.allocated < 0 {
		d.allocated = 0
	}
	d.Dev.SetUsed(d.allocated)
}

// CreateVMDK allocates a new VMDK on this datastore.
func (d *Datastore) CreateVMDK(id int, size int64) (*VMDK, error) {
	base, err := d.allocExtent(size)
	if err != nil {
		return nil, err
	}
	v := newVMDK(id, size, d, base)
	d.vmdks[id] = v
	return v, nil
}

// adopt registers a VMDK that migrated onto this store. A VMDK that was
// active this window joins the adopter's touched list so its counters
// are reset with the adopter's window.
func (d *Datastore) adopt(v *VMDK) {
	d.vmdks[v.ID] = v
	if v.windowRequests > 0 {
		d.noteTouched(v)
	}
}

// evict unregisters a VMDK that migrated away.
func (d *Datastore) evict(v *VMDK) { delete(d.vmdks, v.ID) }

// WindowLoad sums VMDK request counts for the current window. Only
// touched VMDKs can contribute (untouched ones have zero counters), so
// the sum walks the touched list; entries whose VMDK migrated away
// mid-window belong to the new primary and are skipped.
func (d *Datastore) WindowLoad() uint64 {
	var sum uint64
	for _, v := range d.touched {
		if v.src == d {
			sum += v.windowRequests
		}
	}
	return sum
}

// resetWindow clears the monitor, device, and VMDK windows. VMDK
// counters are cleared through the touched list: untouched VMDKs are
// already zero.
func (d *Datastore) resetWindow() {
	d.Mon.ResetWindow()
	d.Dev.Metrics().ResetWindow(0)
	for _, v := range d.touched {
		v.resetWindow()
	}
	d.touched = d.touched[:0]
}
