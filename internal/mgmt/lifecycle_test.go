package mgmt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// lifecycleWorld is one self-contained randomized simulation: flaky-backed
// stores with distinct latencies, a randomized VMDK/workload population,
// and an optional deterministic fault window on one store that drives the
// quarantine → evacuation → probation → readmission lifecycle. An armed
// invariant checker audits every epoch.
type lifecycleWorld struct {
	eng     *sim.Engine
	mgr     *Manager
	inv     *invariant.Checker
	stores  []*Datastore
	runners []*workload.Runner
	epochs  []string // one digest per epoch, from OnEpoch
}

// newLifecycleWorld builds a world from a seed and a scheme; the same
// arguments always build the same world.
func newLifecycleWorld(t *testing.T, seed int64, faulty bool, scheme Scheme) *lifecycleWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()

	// 6 stores with spread latencies: fast ones become destinations,
	// slow loaded ones become sources.
	lats := []sim.Time{20, 40, 80, 200, 500, 1200}
	w := &lifecycleWorld{eng: eng, inv: invariant.NewChecker()}
	var devs []*flaky
	for i, lat := range lats {
		f := newFlaky(eng, fmt.Sprintf("ds%d", i), lat*sim.Microsecond)
		devs = append(devs, f)
		w.stores = append(w.stores, NewDatastore(f, 0))
	}
	if faulty {
		// Store 1 fails every request between 10ms and 25ms of sim time:
		// long enough to trip quarantine, finite so probation readmits it.
		devs[1].fail = func(r *trace.IORequest) bool {
			now := eng.Now()
			return now >= 10*sim.Millisecond && now < 25*sim.Millisecond
		}
	}

	cfg := DefaultConfig()
	cfg.Window = 2 * sim.Millisecond
	cfg.MinWindowRequests = 2
	cfg.MaxConcurrentMigrations = 2
	cfg.DebounceWindows = 1 + rng.Intn(2)
	cfg.MinResidenceWindows = uint64(1 + rng.Intn(4))
	cfg.ProbationWindows = 3
	cfg.QuarantineMinErrors = 3
	w.mgr = NewManager(eng, cfg, scheme, w.stores)
	w.mgr.SetInvariants(w.inv)

	// 12 VMDKs spread over the stores; roughly half get a workload and
	// the rest stay idle. A 13th, always active, starts on store 1 so the
	// fault window sees traffic whatever the seed placed there.
	for id := 1; id <= 13; id++ {
		ds := w.stores[rng.Intn(len(w.stores))]
		if id == 13 {
			ds = w.stores[1]
		}
		v, err := ds.CreateVMDK(id, int64(1+rng.Intn(4))<<20)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 && id != 13 {
			continue
		}
		p := workload.Profile{
			Name:       fmt.Sprintf("w%d", id),
			WriteRatio: 0.3 + 0.4*rng.Float64(),
			ReadRand:   rng.Float64(),
			WriteRand:  rng.Float64(),
			IOSize:     4096,
			OIO:        1 + rng.Intn(6),
			Footprint:  v.Size,
		}
		w.runners = append(w.runners, workload.NewRunner(eng, sim.NewRNG(uint64(seed)+uint64(id)), p, v, 0))
	}

	// Digest every epoch's full performance vector, bit-exactly.
	w.mgr.OnEpoch = func(perfs []StorePerf) {
		var b strings.Builder
		for i := range perfs {
			p := &perfs[i]
			fmt.Fprintf(&b, "%d:%x/%x/%x/%d q=%v wc=%x,%x,%x,%x,%x,%x;",
				i, math.Float64bits(p.PerfUS), math.Float64bits(p.Norm),
				math.Float64bits(p.MeasuredUS), p.Requests, p.Store.Quarantined(),
				math.Float64bits(p.WC.WriteRatio), math.Float64bits(p.WC.OIOs),
				math.Float64bits(p.WC.IOSize), math.Float64bits(p.WC.WriteRand),
				math.Float64bits(p.WC.ReadRand), math.Float64bits(p.WC.FreeSpaceRatio))
		}
		w.epochs = append(w.epochs, b.String())
	}
	return w
}

// run drives the world for 40 management windows and returns its final
// observable summary: stats, decision log, and VMDK placement.
func (w *lifecycleWorld) run() string {
	for _, r := range w.runners {
		r.Start()
	}
	w.mgr.Start()
	w.eng.RunFor(40 * w.mgr.cfg.Window)
	for _, r := range w.runners {
		r.Stop()
	}
	w.mgr.Stop()
	w.eng.Run()

	var b strings.Builder
	fmt.Fprintf(&b, "stats=%+v\n", w.mgr.Stats())
	for _, d := range w.mgr.Log().Entries() {
		fmt.Fprintf(&b, "dec %d %s v%d %s->%s %s\n", d.At, d.Kind, d.VMDK, d.Src, d.Dst, d.Detail)
	}
	for _, ds := range w.stores {
		for _, v := range ds.VMDKs() {
			fmt.Fprintf(&b, "vmdk %d on %s migrating=%v\n", v.ID, v.Store().Dev.Name(), v.Migrating())
		}
	}
	return b.String()
}

// TestRandomizedFaultLifecycle is the randomized property test for the
// management epoch: across seeded fleets, workloads, and config knobs,
// under every model-free scheme, with and without an injected failure
// window, the invariant checker records no violation at any epoch, a
// faulty world goes through at least one quarantine and one readmission,
// and the same seed reproduces every epoch's performance vector and the
// final summary bit for bit.
func TestRandomizedFaultLifecycle(t *testing.T) {
	schemes := []func() Scheme{BASIL, Pesto, LightSRM}
	for seed := int64(1); seed <= 6; seed++ {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d_faulty%v", seed, faulty), func(t *testing.T) {
				for _, scheme := range schemes {
					t.Run(scheme().Name, func(t *testing.T) {
						first := newLifecycleWorld(t, seed, faulty, scheme())
						again := newLifecycleWorld(t, seed, faulty, scheme())
						firstSum, againSum := first.run(), again.run()

						if first.inv.Runs() == 0 {
							t.Fatal("invariant checker never ran")
						}
						if err := first.inv.Err(); err != nil {
							t.Fatalf("%v\n%s", err, first.inv)
						}
						st := first.mgr.Stats()
						if faulty && (st.Quarantines == 0 || st.Readmissions == 0) {
							t.Fatalf("fault window did not drive the lifecycle: %+v", st)
						}
						if len(first.epochs) != len(again.epochs) {
							t.Fatalf("epoch counts differ across runs: %d vs %d",
								len(first.epochs), len(again.epochs))
						}
						for i := range first.epochs {
							if first.epochs[i] != again.epochs[i] {
								t.Fatalf("epoch %d perf vectors diverge across runs:\nfirst: %s\nagain: %s",
									i, first.epochs[i], again.epochs[i])
							}
						}
						if firstSum != againSum {
							t.Fatalf("final summaries diverge across runs:\nfirst:\n%s\nagain:\n%s", firstSum, againSum)
						}
					})
				}
			})
		}
	}
}
