package mgmt

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Migration is one in-flight VMDK move: a background copy engine that
// walks the bitmap, skipping blocks already satisfied by write
// redirection, with optional per-epoch cost/benefit gating (§5.2). Which
// of those mechanisms engage is decided by the Scheme's Redirect and Gate
// fields.
//
// Every copy stage (source read, cross-node transfer, destination write)
// can fail under fault injection. A failed chunk retries with exponential
// backoff up to Config.CopyRetryLimit attempts; exhausting the budget
// aborts the whole migration: redirection is switched off, and the engine
// walks the bitmap copying migrated blocks *back* to the source, leaving
// the VMDK fully consistent at its original location.
type Migration struct {
	mgr *Manager
	v   *VMDK
	src *Datastore
	dst *Datastore

	cursor    int64 // next block index to consider
	inflight  int
	paused    bool // cost/benefit said "not now"
	opPaused  bool // operator said "not now" (sticky until resumed)
	completed bool
	aborting  bool // unwinding back to the source
	// evac marks a quarantine evacuation: cost/benefit gating is skipped
	// (getting off a failing store is not optional).
	evac bool

	abortCursor int64 // next block index the copy-back scan considers

	copiedBytes int64
	startedAt   sim.Time
	finishedAt  sim.Time
}

func newMigration(m *Manager, v *VMDK, src, dst *Datastore) *Migration {
	return &Migration{mgr: m, v: v, src: src, dst: dst, startedAt: m.eng.Now()}
}

// mirroredBytes estimates bytes satisfied without copying.
func (g *Migration) mirroredBytes() int64 {
	return g.v.Blocks()*BlockSize - g.copiedBytes
}

// class returns the request class migration traffic carries, per the
// scheme (§5.3 arch tagging).
func (g *Migration) class() trace.Class {
	return g.mgr.scheme.MigratedClass()
}

// Evacuation reports whether this migration is a quarantine evacuation.
func (g *Migration) Evacuation() bool { return g.evac }

// Aborting reports whether this migration is unwinding.
func (g *Migration) Aborting() bool { return g.aborting }

// regate re-evaluates the cost/benefit gate with fresh epoch data (lazy
// migration only pauses the *copy*; write redirection continues always).
// Schemes that do not gate copies (Scheme.Gate) skip this entirely.
// Evacuations and aborts are never gated: both are safety unwinds, not
// optimizations.
func (g *Migration) regate(perfs []StorePerf) {
	if g.completed || g.aborting || g.evac || !g.mgr.scheme.gatesCopies() {
		return
	}
	var srcP, dstP *StorePerf
	for i := range perfs {
		if perfs[i].Store == g.src {
			srcP = &perfs[i]
		}
		if perfs[i].Store == g.dst {
			dstP = &perfs[i]
		}
	}
	if srcP == nil || dstP == nil {
		return
	}
	remaining := (g.v.Blocks() - g.v.MigratedBlocks()) * BlockSize
	cost, benefit := g.mgr.costBenefit(g.v, srcP, dstP, remaining)
	wasPaused := g.paused
	// §5.2: data are only migrated when the benefit is larger than the
	// cost. An idle system (zero measured cost) also permits progress so
	// migrations eventually finish.
	g.paused = cost > 0 && benefit <= cost
	if wasPaused && !g.paused {
		g.pump()
	}
}

// journalRuns records a bitmap change made by the copy engine as lazy
// journal appends, one per contiguous run — the retry-time live-filter
// can leave holes in a chunk's block list, and the journal's record
// format is runs, not arbitrary sets.
func (g *Migration) journalRuns(kind JournalKind, blocks []int64) {
	jn := g.mgr.journal
	if jn == nil || len(blocks) == 0 {
		return
	}
	start, n := blocks[0], int64(1)
	for _, b := range blocks[1:] {
		if b == start+n {
			n++
			continue
		}
		jn.appendLazy(JournalRecord{Kind: kind, VMDK: g.v.ID, Block: start, Count: n})
		start, n = b, 1
	}
	jn.appendLazy(JournalRecord{Kind: kind, VMDK: g.v.ID, Block: start, Count: n})
}

// pump keeps CopyDepth chunks in flight.
func (g *Migration) pump() {
	if g.completed {
		return
	}
	if g.aborting {
		g.pumpAbort()
		return
	}
	for !g.paused && !g.opPaused && g.inflight < g.mgr.cfg.CopyDepth {
		blocks := g.nextChunk()
		if blocks == nil {
			break
		}
		g.inflight++
		g.attemptChunk(blocks, 0)
	}
	g.maybeFinish()
}

// nextChunk collects the next run of unmigrated blocks, up to ChunkBytes.
func (g *Migration) nextChunk() []int64 {
	maxBlocks := g.mgr.cfg.ChunkBytes / BlockSize
	var blocks []int64
	for g.cursor < g.v.Blocks() && int64(len(blocks)) < maxBlocks {
		b := g.cursor
		g.cursor++
		if g.v.blockMigrated(b) {
			if len(blocks) > 0 {
				break // keep chunks contiguous
			}
			continue
		}
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 {
		return nil
	}
	return blocks
}

// backoff returns the retry delay before attempt n+1 (exponential from
// Config.CopyRetryBackoff, clamped at 64× the base).
func (g *Migration) backoff(attempt int) sim.Time {
	d := g.mgr.cfg.CopyRetryBackoff
	for i := 0; i < attempt && i < 6; i++ {
		d *= 2
	}
	return d
}

// attemptChunk runs one forward-copy attempt: source read → cross-node
// transfer → destination write, marking blocks migrated on success. Any
// stage failure retries the chunk with backoff; exhausting the budget
// aborts the migration. Blocks that a redirected write migrates while the
// copy is in flight are detected at write time and not overwritten (the
// §5.3.1 same-location discard handles the device-level race; here the
// block simply stays marked). The caller has already counted the chunk in
// g.inflight.
func (g *Migration) attemptChunk(blocks []int64, attempt int) {
	// Redirected writes may have satisfied blocks while we backed off;
	// re-filter so retries shrink instead of re-copying redirected data.
	live := blocks[:0]
	for _, b := range blocks {
		if !g.v.blockMigrated(b) {
			live = append(live, b)
		}
	}
	if len(live) == 0 || g.completed || g.aborting {
		g.inflight--
		g.pump()
		return
	}
	blocks = live
	first := blocks[0]
	n := int64(len(blocks))
	fail := func(stage string, err error) {
		g.mgr.stats.CopyRetries++
		if attempt+1 >= g.mgr.cfg.CopyRetryLimit {
			g.inflight--
			if g.aborting || g.completed {
				g.pump()
			} else {
				g.abort(fmt.Sprintf("%s failed %d times: %v", stage, attempt+1, err))
			}
			return
		}
		g.mgr.eng.Schedule(g.backoff(attempt), func() {
			if g.completed || g.aborting {
				g.inflight--
				g.pump()
				return
			}
			g.attemptChunk(blocks, attempt+1)
		})
	}
	read := &trace.IORequest{
		Op:     trace.OpRead,
		Offset: g.v.srcBase + first*BlockSize,
		Size:   n * BlockSize,
		Class:  g.class(),
		VMDK:   g.v.ID,
	}
	g.src.Submit(read, func(c *trace.IORequest) {
		if c.Err != nil {
			fail("source read", c.Err)
			return
		}
		writeOut := func() {
			write := &trace.IORequest{
				Op:     trace.OpWrite,
				Offset: g.v.dstBase + first*BlockSize,
				Size:   n * BlockSize,
				Class:  g.class(),
				VMDK:   g.v.ID,
			}
			g.dst.Submit(write, func(c *trace.IORequest) {
				if c.Err != nil {
					fail("destination write", c.Err)
					return
				}
				if g.aborting || g.completed {
					// The unwind started while this chunk was in flight:
					// leave its blocks unmarked so the source stays
					// authoritative for them.
					g.inflight--
					g.pump()
					return
				}
				for _, b := range blocks {
					g.v.markMigrated(b)
				}
				g.journalRuns(JournalProgress, blocks)
				g.copiedBytes += n * BlockSize
				g.mgr.stats.BytesCopied += n * BlockSize
				g.inflight--
				g.pump()
			})
		}
		if g.src.Node != g.dst.Node && g.mgr.network != nil {
			g.mgr.network.Transfer(g.src.Node, g.dst.Node, n*BlockSize, func(err error) {
				if err != nil {
					fail("network transfer", err)
					return
				}
				writeOut()
			})
		} else {
			writeOut()
		}
	})
}

// abort begins the clean unwind after the retry budget is exhausted:
// redirection stops, fresh writes land on the source, and migrated blocks
// copy back from the destination. Forward chunks still in flight complete
// harmlessly — their blocks stay bitmap-unmarked, so the source remains
// authoritative for them.
func (g *Migration) abort(reason string) {
	if g.completed || g.aborting {
		return
	}
	g.aborting = true
	g.paused = false
	g.mgr.stats.MigrationsAborted++
	g.v.beginAbort()
	if g.mgr.journal != nil {
		g.mgr.journal.appendSync(JournalRecord{Kind: JournalAbort, VMDK: g.v.ID, Detail: reason})
	}
	g.abortCursor = 0
	g.mgr.logDecision(Decision{At: g.mgr.eng.Now(), Kind: DecisionAbort, VMDK: g.v.ID,
		Src: g.src.Dev.Name(), Dst: g.dst.Dev.Name(),
		Detail: "unwinding: " + reason})
	g.pumpAbort()
}

// pumpAbort keeps CopyDepth copy-back chunks in flight. The unwind ignores
// operator pauses — a half-aborted VMDK must not linger on a possibly
// failing destination.
func (g *Migration) pumpAbort() {
	if g.completed {
		return
	}
	for g.inflight < g.mgr.cfg.CopyDepth {
		blocks := g.nextAbortChunk()
		if blocks == nil {
			break
		}
		g.inflight++
		g.attemptAbortChunk(blocks, 0)
	}
	g.maybeFinishAbort()
}

// nextAbortChunk collects the next contiguous run of *migrated* blocks —
// the ones that must move back to the source.
func (g *Migration) nextAbortChunk() []int64 {
	maxBlocks := g.mgr.cfg.ChunkBytes / BlockSize
	var blocks []int64
	for g.abortCursor < g.v.Blocks() && int64(len(blocks)) < maxBlocks {
		b := g.abortCursor
		g.abortCursor++
		if !g.v.blockMigrated(b) {
			if len(blocks) > 0 {
				break // keep chunks contiguous
			}
			continue
		}
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 {
		return nil
	}
	return blocks
}

// attemptAbortChunk copies migrated blocks back: destination read →
// cross-node transfer → source write → clear bitmap bits. Copy-back
// retries indefinitely with clamped backoff: the unwind must eventually
// complete, and fault episodes are finite (the engine watchdog bounds a
// run where they are not). The caller has already counted the chunk in
// g.inflight.
func (g *Migration) attemptAbortChunk(blocks []int64, attempt int) {
	// Abort-time writes may have pulled blocks back to the source already.
	live := blocks[:0]
	for _, b := range blocks {
		if g.v.blockMigrated(b) {
			live = append(live, b)
		}
	}
	if len(live) == 0 || g.completed {
		g.inflight--
		g.pumpAbort()
		return
	}
	blocks = live
	first := blocks[0]
	n := int64(len(blocks))
	retry := func(stage string, err error) {
		g.mgr.stats.CopyRetries++
		g.mgr.eng.After(g.backoff(attempt), func() {
			g.attemptAbortChunk(blocks, attempt+1)
		})
	}
	read := &trace.IORequest{
		Op:     trace.OpRead,
		Offset: g.v.dstBase + first*BlockSize,
		Size:   n * BlockSize,
		Class:  g.class(),
		VMDK:   g.v.ID,
	}
	g.dst.Submit(read, func(c *trace.IORequest) {
		if c.Err != nil {
			retry("destination read", c.Err)
			return
		}
		writeBack := func() {
			write := &trace.IORequest{
				Op:     trace.OpWrite,
				Offset: g.v.srcBase + first*BlockSize,
				Size:   n * BlockSize,
				Class:  g.class(),
				VMDK:   g.v.ID,
			}
			g.src.Submit(write, func(c *trace.IORequest) {
				if c.Err != nil {
					retry("source write", c.Err)
					return
				}
				for _, b := range blocks {
					g.v.markUnmigrated(b)
				}
				g.journalRuns(JournalRevert, blocks)
				g.inflight--
				g.pumpAbort()
			})
		}
		if g.src.Node != g.dst.Node && g.mgr.network != nil {
			g.mgr.network.Transfer(g.dst.Node, g.src.Node, n*BlockSize, func(err error) {
				if err != nil {
					retry("network transfer", err)
					return
				}
				writeBack()
			})
		} else {
			writeBack()
		}
	})
}

// maybeFinishAbort releases the destination once every block is back on
// the source and no copy-back chunk is in flight.
func (g *Migration) maybeFinishAbort() {
	if g.completed || g.inflight > 0 {
		return
	}
	if g.v.MigratedBlocks() > 0 {
		if g.abortCursor >= g.v.Blocks() {
			// In-flight forward chunks may have marked blocks behind the
			// copy-back scan; rescan for them.
			g.abortCursor = 0
			g.pumpAbort()
		}
		return
	}
	g.completed = true
	g.finishedAt = g.mgr.eng.Now()
	g.v.finishAbort()
	g.dst.releaseExtent(g.v.Size)
	g.mgr.migrationAborted(g)
}

// maybeFinish commits the migration once every block lives at the
// destination and no chunk is in flight.
func (g *Migration) maybeFinish() {
	if g.completed || g.aborting || g.inflight > 0 {
		return
	}
	if g.v.MigratedBlocks() < g.v.Blocks() {
		if g.cursor >= g.v.Blocks() && !g.paused {
			// The cursor passed blocks that redirection has not written;
			// rescan for the stragglers.
			g.cursor = 0
			if g.nextChunkPeek() {
				g.pump()
			}
		}
		return
	}
	g.completed = true
	g.finishedAt = g.mgr.eng.Now()
	src := g.src
	g.v.finishMigration()
	src.evict(g.v)
	g.dst.adopt(g.v)
	src.releaseExtent(g.v.Size)
	g.mgr.migrationDone(g)
}

// nextChunkPeek reports whether unmigrated blocks remain without moving
// the cursor permanently.
func (g *Migration) nextChunkPeek() bool {
	for b := int64(0); b < g.v.Blocks(); b++ {
		if !g.v.blockMigrated(b) {
			return true
		}
	}
	return false
}
