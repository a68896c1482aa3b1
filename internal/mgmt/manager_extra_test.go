package mgmt

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// constPredictor returns a fixed prediction regardless of WC.
type constPredictor float64

func (c constPredictor) PredictUS(trace.WC) float64 { return float64(c) }

func TestIdleEstimateOrdering(t *testing.T) {
	nv := idleEstimateUS(device.KindNVDIMM)
	sd := idleEstimateUS(device.KindSSD)
	hd := idleEstimateUS(device.KindHDD)
	if !(nv < sd && sd < hd) {
		t.Fatalf("idle estimates must order NVDIMM < SSD < HDD: %v %v %v", nv, sd, hd)
	}
}

func TestPerfOfClampsToMeasured(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), BCA(), n.dss)
	// A predictor that wildly over-predicts must be clamped to MP.
	mgr.SetModel(device.KindNVDIMM, constPredictor(1e9))
	wc := trace.WC{OIOs: 4, IOSize: 4096}
	if got := mgr.perfOf(n.dss[0], wc, 500, 50); got != 500 {
		t.Fatalf("over-prediction not clamped: %v", got)
	}
	// An under-predicting model passes through (contention stripped).
	mgr.SetModel(device.KindNVDIMM, constPredictor(10))
	if got := mgr.perfOf(n.dss[0], wc, 500, 50); got != 10 {
		t.Fatalf("prediction not used: %v", got)
	}
	// Non-NVDIMM stores always use the measurement.
	if got := mgr.perfOf(n.dss[1], wc, 500, 50); got != 500 {
		t.Fatalf("SSD should use measured: %v", got)
	}
}

func TestPerfOfWithoutModelFallsBack(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), BCA(), n.dss)
	if got := mgr.perfOf(n.dss[0], trace.WC{}, 123, 10); got != 123 {
		t.Fatalf("no model installed: got %v, want measured", got)
	}
}

func TestDebounceFiltersSingleWindowSpike(t *testing.T) {
	// With DebounceWindows=3, a single imbalanced epoch must not trigger.
	n := newNode(t)
	cfg := quickCfg()
	cfg.DebounceWindows = 3
	mgr := NewManager(n.eng, cfg, BASIL(), n.dss)
	v, _ := n.dss[2].CreateVMDK(1, 8<<20)
	p := workload.Profile{Name: "w", WriteRatio: 0.3, ReadRand: 0.8, WriteRand: 0.8,
		IOSize: 4096, OIO: 4, Footprint: 8 << 20}
	r := workload.NewRunner(n.eng, sim.NewRNG(1), p, v, 0)
	r.Start()
	mgr.Start()
	// Run exactly two management windows: imbalance holds, but the
	// debounce (3) must prevent any migration.
	n.eng.RunFor(2*cfg.Window + cfg.Window/2)
	if mgr.Stats().MigrationsStarted != 0 {
		t.Fatalf("debounce violated: %d migrations after 2 windows",
			mgr.Stats().MigrationsStarted)
	}
	// With the imbalance persisting (the HDD queue keeps growing), the
	// debounce eventually clears and a migration triggers.
	n.eng.RunFor(12 * cfg.Window)
	r.Stop()
	mgr.Stop()
	n.eng.Run()
	if mgr.Stats().MigrationsStarted == 0 {
		t.Fatal("persistent imbalance never triggered despite debounce satisfied")
	}
}

func TestSmoothingDampsSpikes(t *testing.T) {
	n := newNode(t)
	cfg := quickCfg()
	cfg.SmoothingAlpha = 0.5
	mgr := NewManager(n.eng, cfg, BASIL(), n.dss)
	ds := n.dss[0]
	// The first observation carries no history: an idle NVDIMM reads its
	// technology estimate unsmoothed.
	idle := idleEstimateUS(ds.Dev.Kind())
	if got := mgr.observe()[0].PerfUS; got != idle {
		t.Fatalf("first epoch = %v, want the idle estimate %v", got, idle)
	}
	// A 1000µs spike remembered from the last epoch is halved toward the
	// idle window under α=0.5, not adopted or forgotten outright.
	ds.ewmaUS = 1000
	want := cfg.SmoothingAlpha*idle + (1-cfg.SmoothingAlpha)*1000
	if got := mgr.observe()[0].PerfUS; got != want {
		t.Fatalf("smoothed = %v, want %v", got, want)
	}
	if ds.ewmaUS != want {
		t.Fatalf("EWMA memory = %v, want %v", ds.ewmaUS, want)
	}
}

func TestCostBenefitZeroWhenDestinationWorse(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), Pesto(), n.dss)
	v, _ := n.dss[0].CreateVMDK(1, 8<<20)
	v.windowRequests = 100
	v.windowBytes = 400 << 10
	src := StorePerf{Store: n.dss[0], PerfUS: 100, WC: trace.WC{IOSize: 4096}}
	dst := StorePerf{Store: n.dss[2], PerfUS: 8000, WC: trace.WC{IOSize: 4096}}
	cost, benefit := mgr.costBenefit(v, &src, &dst, v.Size)
	if benefit != 0 {
		t.Fatalf("moving to a slower device should have zero benefit, got %v", benefit)
	}
	if cost <= 0 {
		t.Fatalf("cost should be positive, got %v", cost)
	}
}

func TestCostBenefitPositiveWhenDestinationFaster(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), Pesto(), n.dss)
	v, _ := n.dss[2].CreateVMDK(1, 1<<20)
	v.windowRequests = 200
	v.windowBytes = 800 << 10
	src := StorePerf{Store: n.dss[2], PerfUS: 9000, WC: trace.WC{IOSize: 4096}}
	dst := StorePerf{Store: n.dss[0], PerfUS: 100, WC: trace.WC{IOSize: 4096}}
	cost, benefit := mgr.costBenefit(v, &src, &dst, v.Size)
	if benefit <= cost {
		t.Fatalf("hot small VMDK to a much faster device must pass the gate: cost=%v benefit=%v",
			cost, benefit)
	}
}

// TestHysteresisBlocksRecentMover hands the balancer a clear imbalance
// whose only candidate is a VMDK with window traffic that moved last
// epoch: the MinResidenceWindows hysteresis must block it. The control,
// the same VMDK with no move history, must migrate, so the test fails if
// the hysteresis check is removed.
func TestHysteresisBlocksRecentMover(t *testing.T) {
	for _, tc := range []struct {
		name          string
		lastMoveEpoch uint64
		wantStarted   uint64
	}{
		{"recent_mover", 1, 0},
		{"never_moved", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newNode(t)
			cfg := quickCfg()
			cfg.MinResidenceWindows = 100 // effectively forever within the test
			cfg.DebounceWindows = 1
			mgr := NewManager(n.eng, cfg, BASIL(), n.dss)
			v, _ := n.dss[2].CreateVMDK(1, 8<<20)
			v.windowRequests = 10
			n.dss[2].noteTouched(v)
			v.lastMoveEpoch = tc.lastMoveEpoch
			mgr.stats.Epochs = 2
			perfs := []StorePerf{
				{Store: n.dss[0], PerfUS: 100, Norm: 1, Requests: 10},
				{Store: n.dss[2], PerfUS: 9000, Norm: 10, Requests: 10},
			}
			mgr.balance(perfs)
			if got := mgr.Stats().MigrationsStarted; got != tc.wantStarted {
				t.Fatalf("migrations started = %d, want %d (lastMoveEpoch %d, epoch %d)",
					got, tc.wantStarted, tc.lastMoveEpoch, mgr.stats.Epochs)
			}
		})
	}
}

func TestBenefitHorizonScalesBenefit(t *testing.T) {
	n := newNode(t)
	cfgShort := quickCfg()
	cfgShort.BenefitHorizonWindows = 1
	cfgLong := quickCfg()
	cfgLong.BenefitHorizonWindows = 100
	short := NewManager(n.eng, cfgShort, Pesto(), n.dss)
	long := NewManager(n.eng, cfgLong, Pesto(), n.dss)
	v, _ := n.dss[2].CreateVMDK(1, 1<<20)
	v.windowRequests = 50
	v.windowBytes = 200 << 10
	src := StorePerf{Store: n.dss[2], PerfUS: 9000, WC: trace.WC{IOSize: 4096}}
	dst := StorePerf{Store: n.dss[0], PerfUS: 100, WC: trace.WC{IOSize: 4096}}
	_, bShort := short.costBenefit(v, &src, &dst, v.Size)
	_, bLong := long.costBenefit(v, &src, &dst, v.Size)
	if bLong != bShort*100 {
		t.Fatalf("benefit should scale with horizon: %v vs %v", bShort, bLong)
	}
}
