package mgmt

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var errFlaky = errors.New("flaky device error")

// flaky is a fixed-latency in-package test device whose failure behaviour
// is scripted per request.
type flaky struct {
	device.Base
	eng *sim.Engine
	lat sim.Time
	// fail decides whether a request errors (nil = always healthy).
	fail func(r *trace.IORequest) bool

	writes int
}

func newFlaky(eng *sim.Engine, name string, lat sim.Time) *flaky {
	return &flaky{Base: device.NewBase(name, device.KindSSD, 1<<30), eng: eng, lat: lat}
}

func (f *flaky) Submit(r *trace.IORequest, done device.Completion) {
	if r.Op == trace.OpWrite {
		f.writes++
	}
	if f.fail != nil && f.fail(r) {
		r.Err = errFlaky
	}
	r.Issue = f.eng.Now()
	f.eng.Schedule(f.lat, func() {
		r.Complete = f.eng.Now()
		f.Metrics().Observe(r)
		if done != nil {
			done(r)
		}
	})
}

// failurePair builds two flaky-backed datastores on one engine with a
// fast retry schedule.
func failurePair(t *testing.T) (*sim.Engine, *Manager, *Datastore, *Datastore, *flaky, *flaky) {
	t.Helper()
	eng := sim.NewEngine()
	fa := newFlaky(eng, "store-a", 10*sim.Microsecond)
	fb := newFlaky(eng, "store-b", 10*sim.Microsecond)
	a := NewDatastore(fa, 0)
	b := NewDatastore(fb, 0)
	cfg := quickCfg()
	cfg.CopyRetryLimit = 3
	cfg.CopyRetryBackoff = 50 * sim.Microsecond
	mgr := NewManager(eng, cfg, LightSRM(), []*Datastore{a, b})
	return eng, mgr, a, b, fa, fb
}

func TestMigrationRetriesTransientFailures(t *testing.T) {
	eng, mgr, a, b, _, fb := failurePair(t)
	v, err := a.CreateVMDK(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The destination fails its first two writes, then heals: the chunk
	// must retry with backoff and the migration still complete.
	fails := 2
	fb.fail = func(r *trace.IORequest) bool {
		if r.Op == trace.OpWrite && fails > 0 {
			fails--
			return true
		}
		return false
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := mgr.Stats()
	if st.CopyRetries == 0 {
		t.Fatal("transient write failures produced no retries")
	}
	if st.MigrationsAborted != 0 {
		t.Fatal("transient failures within the retry budget aborted the migration")
	}
	if st.MigrationsCompleted != 1 || v.Store() != b || v.Migrating() {
		t.Fatalf("migration did not complete: %+v, store=%s", st, v.Store().Dev.Name())
	}
}

func TestMigrationAbortsAfterRetryBudgetAndUnwinds(t *testing.T) {
	eng, mgr, a, b, _, fb := failurePair(t)
	v, err := a.CreateVMDK(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The destination accepts a few chunks, then fails every write: some
	// blocks land on b before the retry budget is exhausted, so the abort
	// must copy them back.
	okWrites := 2
	fb.fail = func(r *trace.IORequest) bool {
		if r.Op != trace.OpWrite {
			return false
		}
		if okWrites > 0 {
			okWrites--
			return false
		}
		return true
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := mgr.Stats()
	if st.MigrationsAborted != 1 {
		t.Fatalf("aborted = %d, want 1", st.MigrationsAborted)
	}
	if st.MigrationsCompleted != 0 {
		t.Fatal("aborted migration also counted as completed")
	}
	if v.Store() != a || v.Migrating() || v.Aborting() || v.MigratedBlocks() != 0 {
		t.Fatalf("VMDK not consistent on source: store=%s migrating=%v migrated=%d",
			v.Store().Dev.Name(), v.Migrating(), v.MigratedBlocks())
	}
	if b.Allocated() != 0 {
		t.Fatalf("destination extent not released: %d bytes", b.Allocated())
	}
	if mgr.ActiveMigrations() != 0 {
		t.Fatal("aborted migration still active")
	}
	var sawAbort, sawUnwound bool
	for _, d := range mgr.Log().Entries() {
		if d.Kind == DecisionAbort {
			sawAbort = true
			if strings.Contains(d.Detail, "unwind complete") {
				sawUnwound = true
			}
		}
	}
	if !sawAbort || !sawUnwound {
		t.Fatalf("decision log missing abort entries:\n%s", mgr.Log())
	}
}

func TestAbortTimeWritesLandOnSourceAndClearBitmap(t *testing.T) {
	eng, _, a, b, fa, _ := failurePair(t)
	v, err := a.CreateVMDK(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	base, err := b.allocExtent(v.Size)
	if err != nil {
		t.Fatal(err)
	}
	v.beginMigration(b, base, true)
	v.markMigrated(0)
	v.beginAbort()
	srcWritesBefore := fa.writes
	done := false
	v.Submit(&trace.IORequest{Op: trace.OpWrite, Offset: 0, Size: BlockSize},
		func(*trace.IORequest) { done = true })
	eng.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if fa.writes != srcWritesBefore+1 {
		t.Fatal("abort-time write did not land on the source")
	}
	if v.blockMigrated(0) {
		t.Fatal("abort-time write did not clear the block's bitmap bit")
	}
}

// TestStragglerRescanAfterResume exercises the maybeFinish cursor rescan:
// the copy cursor reaches the end of the disk while operator-paused blocks
// remain unmigrated behind it; resuming must rescan and finish rather than
// stall with a partially-migrated VMDK.
func TestStragglerRescanAfterResume(t *testing.T) {
	eng, mgr, a, b, _, _ := failurePair(t)
	// Larger than CopyDepth×ChunkBytes so the first pump cannot cover the
	// whole disk and the pause leaves unmigrated blocks behind.
	v, err := a.CreateVMDK(1, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	if !mgr.PauseMigration(v.ID) {
		t.Fatal("pause found no migration")
	}
	eng.Run() // drain the chunks issued before the pause
	if !v.Migrating() || len(mgr.active) == 0 {
		t.Fatal("migration completed despite the pause")
	}
	mig := mgr.active[0]
	// Simulate mirroring marking scattered blocks while the copy was
	// paused and the cursor having scanned past them.
	v.markMigrated(v.Blocks() - 1)
	mig.cursor = v.Blocks()
	if !mgr.ResumeMigration(v.ID) {
		t.Fatal("resume found no migration")
	}
	eng.Run()
	if v.MigratedBlocks() != 0 || v.Migrating() {
		// finishMigration clears the bitmap; Migrating flips false.
		t.Fatalf("stragglers never migrated: %d blocks marked, migrating=%v",
			v.MigratedBlocks(), v.Migrating())
	}
	if mgr.Stats().MigrationsCompleted != 1 || v.Store() != b {
		t.Fatalf("migration did not complete after rescan: %+v", mgr.Stats())
	}
}

// TestAbortProceedsWhileOperatorPaused: an operator pause must not stall an
// unwind — a half-aborted VMDK cannot linger on a failing destination.
func TestAbortProceedsWhileOperatorPaused(t *testing.T) {
	eng, mgr, a, b, _, _ := failurePair(t)
	v, err := a.CreateVMDK(1, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(30 * sim.Microsecond) // let some chunks land on b
	if !mgr.PauseMigration(v.ID) {
		t.Fatal("pause found no migration")
	}
	mig := mgr.active[0]
	mig.abort("test-induced abort")
	if !mig.opPaused {
		t.Fatal("operator pause lost")
	}
	eng.Run()
	if mgr.Stats().MigrationsAborted != 1 {
		t.Fatal("abort not recorded")
	}
	if v.Store() != a || v.Migrating() || v.MigratedBlocks() != 0 {
		t.Fatalf("unwind stalled under operator pause: store=%s migrated=%d",
			v.Store().Dev.Name(), v.MigratedBlocks())
	}
	if b.Allocated() != 0 {
		t.Fatal("destination extent not released")
	}
	// The migration is gone; resuming it now reports not-found.
	if mgr.ResumeMigration(v.ID) {
		t.Fatal("aborted migration still resumable")
	}
}

// TestPausedMigrationAbortsWhenDestinationQuarantined: an
// operator-paused balancing copy whose destination store is then
// quarantined must abort-unwind cleanly — bitmap-consistent source,
// destination extent released, balancing budget freed — rather than
// lingering forever as a paused active entry pinned to a failing store.
func TestPausedMigrationAbortsWhenDestinationQuarantined(t *testing.T) {
	eng := sim.NewEngine()
	fa := newFlaky(eng, "src", 10*sim.Microsecond)
	fb := newFlaky(eng, "dst", 10*sim.Microsecond)
	a := NewDatastore(fa, 0)
	b := NewDatastore(fb, 0)
	cfg := DefaultConfig()
	cfg.Window = sim.Millisecond
	cfg.MinWindowRequests = 2
	cfg.QuarantineMinErrors = 3
	cfg.CopyRetryBackoff = 50 * sim.Microsecond
	mgr := NewManager(eng, cfg, LightSRM(), []*Datastore{a, b})
	v, err := a.CreateVMDK(1, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	// A resident VMDK on the destination whose writes will start failing,
	// driving b's window error rate over the quarantine threshold.
	vb, err := b.CreateVMDK(2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(30 * sim.Microsecond) // let some chunks land on b
	if !mgr.PauseMigration(v.ID) {
		t.Fatal("pause found no migration")
	}
	if v.MigratedBlocks() == 0 {
		t.Fatal("test setup: no blocks copied before the pause")
	}
	// Only the resident VMDK's writes fail — the paused copy is idle, so
	// the failing device is detected purely through foreground traffic.
	fb.fail = func(r *trace.IORequest) bool {
		return r.Op == trace.OpWrite && r.VMDK == vb.ID
	}
	p := workload.Profile{Name: "w", WriteRatio: 1.0, WriteRand: 0.5,
		IOSize: 4096, OIO: 4, Footprint: 1 << 20}
	r := workload.NewRunner(eng, sim.NewRNG(1), p, vb, 0)
	r.Start()
	mgr.Start()
	eng.RunFor(20 * sim.Millisecond)
	r.Stop()
	mgr.Stop()
	eng.Run()

	st := mgr.Stats()
	if st.Quarantines == 0 {
		t.Fatalf("destination never quarantined: %+v", st)
	}
	if st.MigrationsAborted != 1 {
		t.Fatalf("aborted = %d, want 1 (the paused copy)", st.MigrationsAborted)
	}
	if v.Store() != a || v.Migrating() || v.Aborting() || v.MigratedBlocks() != 0 {
		t.Fatalf("VMDK not consistent on source after unwind: store=%s migrating=%v migrated=%d",
			v.Store().Dev.Name(), v.Migrating(), v.MigratedBlocks())
	}
	for _, mig := range mgr.active {
		if mig.v == v {
			t.Fatal("aborted migration leaked an active entry")
		}
	}
	if mgr.balancingMigrations() != 0 {
		t.Fatal("balancing budget not released")
	}
	var sawReason bool
	for _, d := range mgr.Log().Entries() {
		if d.Kind == DecisionAbort && strings.Contains(d.Detail, "destination quarantined while copy paused") {
			sawReason = true
		}
	}
	if !sawReason {
		t.Fatalf("decision log missing the quarantine-abort reason:\n%s", mgr.Log())
	}
}

// TestQuarantineEvacuateReadmitLifecycle drives the full failure-aware
// management arc: error-rate quarantine → evacuation to a healthy store →
// probation → readmission.
func TestQuarantineEvacuateReadmitLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	fa := newFlaky(eng, "failing", 10*sim.Microsecond)
	fb := newFlaky(eng, "healthy", 10*sim.Microsecond)
	a := NewDatastore(fa, 0)
	b := NewDatastore(fb, 0)
	cfg := DefaultConfig()
	cfg.Window = sim.Millisecond
	cfg.MinWindowRequests = 2
	cfg.QuarantineMinErrors = 3
	cfg.ProbationWindows = 3
	cfg.CopyRetryBackoff = 50 * sim.Microsecond
	mgr := NewManager(eng, cfg, LightSRM(), []*Datastore{a, b})
	v, err := a.CreateVMDK(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Writes to the failing store error; reads still work, so the
	// evacuation copy can read the data off it.
	failing := true
	fa.fail = func(r *trace.IORequest) bool { return failing && r.Op == trace.OpWrite }
	p := workload.Profile{Name: "w", WriteRatio: 1.0, WriteRand: 0.5,
		IOSize: 4096, OIO: 4, Footprint: 1 << 20}
	r := workload.NewRunner(eng, sim.NewRNG(1), p, v, 0)
	r.Start()
	mgr.Start()
	eng.RunFor(20 * sim.Millisecond)
	if !a.Quarantined() && mgr.Stats().Quarantines == 0 {
		t.Fatalf("failing store never quarantined: %+v", mgr.Stats())
	}
	if mgr.Stats().Evacuations == 0 {
		t.Fatalf("no evacuation launched: %+v", mgr.Stats())
	}
	// Let the evacuation finish and probation elapse; the store heals.
	failing = false
	eng.RunFor(30 * sim.Millisecond)
	r.Stop()
	mgr.Stop()
	eng.Run()
	st := mgr.Stats()
	if v.Store() != b || v.Migrating() {
		t.Fatalf("VMDK not evacuated to healthy store: %s", v.Store().Dev.Name())
	}
	if st.Readmissions == 0 || a.Quarantined() {
		t.Fatalf("store never readmitted after probation: %+v, quarantined=%v", st, a.Quarantined())
	}
	// The decision log must tell the whole story in order.
	order := map[DecisionKind]int{}
	for i, d := range mgr.Log().Entries() {
		if _, seen := order[d.Kind]; !seen {
			order[d.Kind] = i
		}
	}
	qi, qOK := order[DecisionQuarantine]
	ei, eOK := order[DecisionEvacuate]
	ri, rOK := order[DecisionReadmit]
	if !qOK || !eOK || !rOK {
		t.Fatalf("decision log missing lifecycle entries:\n%s", mgr.Log())
	}
	if !(qi < ei && ei < ri) {
		t.Fatalf("lifecycle out of order: quarantine@%d evacuate@%d readmit@%d", qi, ei, ri)
	}
}

func TestQuarantinedStoreExcludedFromPlacement(t *testing.T) {
	eng := sim.NewEngine()
	fa := newFlaky(eng, "fast-but-failing", 5*sim.Microsecond)
	fb := newFlaky(eng, "slow-but-healthy", 50*sim.Microsecond)
	a := NewDatastore(fa, 0)
	b := NewDatastore(fb, 0)
	mgr := NewManager(eng, quickCfg(), BASIL(), []*Datastore{a, b})
	a.quarantined = true
	v, err := mgr.PlaceVMDK(1<<20, trace.WC{OIOs: 4, IOSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if v.Store() != b {
		t.Fatal("Eq. 4 placed onto a quarantined store")
	}
	a.quarantined = false
	mgr.stores[0].quarantined = false
}

func TestQuarantinedStoreExcludedFromBalancing(t *testing.T) {
	// a is slow and loaded, b idle and healthy: a maximal imbalance with b
	// as the only possible destination. Quarantined, b must never be
	// chosen; a long probation keeps it quarantined for the whole run.
	// The control run without quarantine must migrate, or the scenario
	// would pass without ever reaching the destination check.
	run := func(quarantine bool) Stats {
		eng := sim.NewEngine()
		a := NewDatastore(newFlaky(eng, "a", 2*sim.Millisecond), 0)
		b := NewDatastore(newFlaky(eng, "b", 10*sim.Microsecond), 0)
		cfg := quickCfg()
		cfg.Window = 5 * sim.Millisecond
		cfg.MinWindowRequests = 2
		cfg.ProbationWindows = 1000
		mgr := NewManager(eng, cfg, BASIL(), []*Datastore{a, b})
		v, err := a.CreateVMDK(1, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		b.quarantined = quarantine
		p := workload.Profile{Name: "w", WriteRatio: 0.5, ReadRand: 0.8, WriteRand: 0.8,
			IOSize: 4096, OIO: 8, Footprint: 1 << 20}
		r := workload.NewRunner(eng, sim.NewRNG(1), p, v, 0)
		r.Start()
		mgr.Start()
		eng.RunFor(40 * sim.Millisecond)
		r.Stop()
		mgr.Stop()
		eng.Run()
		return mgr.Stats()
	}
	if st := run(false); st.MigrationsStarted == 0 {
		t.Fatalf("control: a healthy idle destination never attracted a migration: %+v", st)
	}
	if st := run(true); st.MigrationsStarted != 0 || st.Readmissions != 0 {
		t.Fatalf("migrated onto a quarantined store: %+v", st)
	}
}
