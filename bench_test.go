// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment at Quick
// scale and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation sweep. cmd/experiments prints the full
// rows/series at report scale.
package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/lint"
	"repro/internal/mgmt"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/workload"
)

var (
	benchModelOnce sync.Once
	benchModel     *perfmodel.Model
	benchModelErr  error
)

func benchSharedModel(b *testing.B) *perfmodel.Model {
	b.Helper()
	benchModelOnce.Do(func() {
		benchModel, benchModelErr = TrainModel(99)
	})
	if benchModelErr != nil {
		b.Fatalf("model training: %v", benchModelErr)
	}
	return benchModel
}

// BenchmarkTable1DeviceSpecs regenerates the Table 1 device comparison.
func BenchmarkTable1DeviceSpecs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if len(r.Rows) != 5 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkTable2MigrationOverhead regenerates Table 2 (migration
// overhead with vs without memory interference) and reports BASIL's
// single-node interference-attributable share.
func BenchmarkTable2MigrationOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Scheme == "BASIL" && row.Environment == "Single node" {
				b.ReportMetric(row.Overhead*100, "basil_overhead_%")
			}
		}
	}
}

// BenchmarkTable3RegressionTree regenerates the Table 3 / Fig. 6 tree
// construction example.
func BenchmarkTable3RegressionTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if r.RootName != "free_space_ratio" {
			b.Fatalf("root split = %s", r.RootName)
		}
	}
}

// BenchmarkFig4MemoryTrafficEffect regenerates Fig. 4 and reports the
// latency/intensity correlation.
func BenchmarkFig4MemoryTrafficEffect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Correlation, "corr")
	}
}

// BenchmarkFig5DeviceCharacteristics regenerates the Fig. 5 sweeps and
// reports the HDD randomness slope (p100/p0).
func BenchmarkFig5DeviceCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(experiments.Quick())
		if r.HDDByRand[0] > 0 {
			b.ReportMetric(r.HDDByRand[len(r.HDDByRand)-1]/r.HDDByRand[0], "hdd_rand_slope")
		}
	}
}

// BenchmarkFig7ModelVerification regenerates Fig. 7(a) and reports model
// error versus the quiet curve (the paper reports ~5%).
func BenchmarkFig7ModelVerification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(1.0, experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ModelErr*100, "model_err_%")
		b.ReportMetric(r.ContentionGap*100, "contention_gap_%")
	}
}

// BenchmarkFig7LowFreeSpace regenerates Fig. 7(b) (10% free space).
func BenchmarkFig7LowFreeSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(0.1, experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ModelErr*100, "model_err_%")
	}
}

// BenchmarkFig12BCAManagement regenerates Fig. 12 and reports BCA's
// latency improvement over BASIL on the mcf single-node mix.
func BenchmarkFig12BCAManagement(b *testing.B) {
	m := benchSharedModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(experiments.Quick(), m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mixes[0].BCAImprovement["BASIL"]*100, "bca_vs_basil_%")
	}
}

// BenchmarkFig13LazyMigration regenerates Fig. 13 and reports the lazy
// scheme's migration time normalized to BASIL (single node).
func BenchmarkFig13LazyMigration(b *testing.B) {
	m := benchSharedModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(experiments.Quick(), m)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Nodes == 1 && row.Scheme == "BCA+Lazy" {
				b.ReportMetric(row.Normalized, "lazy_vs_basil")
			}
		}
	}
}

// BenchmarkFig14SchedulingPolicies regenerates Fig. 14 and reports the
// average speedups of Policy One, Policy Two, and both.
func BenchmarkFig14SchedulingPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14(experiments.Quick())
		b.ReportMetric(r.AvgP1, "p1_speedup")
		b.ReportMetric(r.AvgP2, "p2_speedup")
		b.ReportMetric(r.AvgBoth, "both_speedup")
	}
}

// BenchmarkFig15CacheBypass regenerates Fig. 15 and reports the final
// hit ratios with and without bypassing.
func BenchmarkFig15CacheBypass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15(experiments.Quick())
		b.ReportMetric(r.FinalLRFU()*100, "lrfu_hit_%")
		b.ReportMetric(r.FinalBypass()*100, "bypass_hit_%")
	}
}

// BenchmarkFig16ArchCombined regenerates Fig. 16 and reports the combined
// architectural speedup.
func BenchmarkFig16ArchCombined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16(experiments.Quick())
		b.ReportMetric(r.Avg, "avg_speedup")
		b.ReportMetric(r.Max, "max_speedup")
	}
}

// BenchmarkFig17PuttingItAllTogether regenerates Fig. 17 and reports the
// full design's latency speedup over BASIL.
func BenchmarkFig17PuttingItAllTogether(b *testing.B) {
	m := benchSharedModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(experiments.Quick(), m)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Scheme == "BCA+Lazy+Arch" {
				b.ReportMetric(row.Speedup, "full_vs_basil")
			}
		}
	}
}

// BenchmarkTauSweep regenerates the §6.2.1 τ sensitivity sweep and
// reports the migration count at the extremes.
func BenchmarkTauSweep(b *testing.B) {
	m := benchSharedModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.TauSweep(experiments.Quick(), m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Rows[0].Migrations), "migs_tau_0.2")
		b.ReportMetric(float64(r.Rows[len(r.Rows)-1].Migrations), "migs_tau_0.8")
	}
}

// BenchmarkModelTraining measures §4 training cost (data collection plus
// regression-tree fitting) for the scaled NVDIMM.
func BenchmarkModelTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := TrainModel(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationModels compares tree / linear / aggregation predictors
// on held-out quiet measurements (§4.4 model choice).
func BenchmarkAblationModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ModelAblation(experiments.Quick(), uint64(i)+5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TreeMAE, "tree_mae_us")
		b.ReportMetric(r.AggregationMAE, "agg_mae_us")
	}
}

// BenchmarkAblationLambda sweeps the LRFU λ under migration pollution.
func BenchmarkAblationLambda(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.LambdaAblation(experiments.Quick())
		b.ReportMetric(r.HitRatios[0]*100, "lfu_like_hit_%")
		b.ReportMetric(r.LRU*100, "lru_hit_%")
	}
}

// BenchmarkAblationNPB isolates the non-persistent barrier's effect on
// migrated-write starvation (Fig. 10).
func BenchmarkAblationNPB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NPBAblation()
		b.ReportMetric(r.WithoutNPBWaitUS, "no_npb_wait_us")
		b.ReportMetric(r.WithNPBWaitUS, "npb_wait_us")
	}
}

// BenchmarkAblationMirroring isolates I/O mirroring inside lazy
// migration.
func BenchmarkAblationMirroring(b *testing.B) {
	m := benchSharedModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.MirroringAblation(experiments.Quick(), m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.WithMirroring.BytesCopied>>20), "mirror_copied_MB")
		b.ReportMetric(float64(r.WithoutMirroring.BytesCopied>>20), "eager_copied_MB")
	}
}

// BenchmarkExtensionDAX measures the DAX access-path study (the paper's
// concluding outlook).
func BenchmarkExtensionDAX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.DAXStudy(experiments.Quick())
		b.ReportMetric(r.Speedups[0], "dax_256B_speedup")
	}
}

// BenchmarkPlacementStudy measures the §5.1.1 initial-placement
// comparison under interference.
func BenchmarkPlacementStudy(b *testing.B) {
	m := benchSharedModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.PlacementStudy(experiments.Quick(), m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BASILNVDIMMRate*100, "basil_nvdimm_%")
		b.ReportMetric(r.BCANVDIMMRate*100, "bca_nvdimm_%")
	}
}

// BenchmarkFig9Schedule regenerates the Fig. 9/10 schedule example and
// reports the Policy One makespan gain.
func BenchmarkFig9Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(experiments.Quick())
		base := r.Makespan("baseline")
		p1 := r.Makespan("Policy One")
		if p1 > 0 {
			b.ReportMetric(float64(base)/float64(p1), "p1_makespan_gain")
		}
	}
}

// benchEngineRecord is the schema of BENCH_engine.json: the raw cost of
// the discrete-event hot path (At/Step through a self-rescheduling timer
// wheel), with the engine's own profiling counters enabled so the record
// reflects the instrumented path that real runs with profiling pay.
type benchEngineRecord struct {
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Timers        int     `json:"timers"`
	Events        uint64  `json:"events"`
	EventsPerSec  float64 `json:"events_per_sec"`
	NsPerEvent    float64 `json:"ns_per_event"`
	AllocsPerOp   uint64  `json:"allocs_per_op"`
	Inserts       uint64  `json:"inserts"`
	Dispatches    uint64  `json:"dispatches"`
	MaxTimerDepth int     `json:"max_timer_depth"`
	// Wheel-level cost counters (engine v2, DESIGN.md §15): how often the
	// hierarchical wheel redistributed entries downward and how many
	// events entered via the beyond-horizon overflow tier.
	Cascades           uint64 `json:"cascades"`
	OverflowPromotions uint64 `json:"overflow_promotions"`
}

// BenchmarkEngineHotPath measures the event loop itself: a wheel of
// self-rescheduling timers with coprime periods (so the dispatch order
// churns) dispatched through Engine.Step. One benchmark op is one
// dispatched event. Events/sec, ns/event, and allocs/op land in
// BENCH_engine.json so engine-throughput work (ROADMAP) has a tracked
// baseline; CI asserts allocs_per_op stays 0 (pooled timers, steady
// state) and that the wheel counters are present.
func BenchmarkEngineHotPath(b *testing.B) {
	const nTimers = 64
	eng := sim.NewEngine()
	// Coprime-ish periods spread events across the wheel instead of
	// batching them at one timestamp.
	for i := 0; i < nTimers; i++ {
		period := sim.Time(97+13*i) * sim.Microsecond
		var tick func()
		tick = func() { eng.Schedule(period, tick) }
		eng.Schedule(sim.Time(i)*sim.Microsecond, tick)
	}
	// Warm-up: let the timer pool and dispatch buffer reach steady state
	// so the measured window reflects the 0-alloc hot path, not one-time
	// slice growth.
	for i := 0; i < 10_000; i++ {
		if !eng.Step() {
			b.Fatal("engine drained during warm-up")
		}
	}
	eng.EnableProfiling()
	var ms0, ms1 runtime.MemStats
	b.ResetTimer()
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if !eng.Step() {
			b.Fatal("engine drained: self-rescheduling timers died")
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	b.StopTimer()
	prof := eng.Profile()
	// Whole allocations per op, counted the way testing.AllocsPerRun
	// does: integer mallocs ÷ runs. The delta is process-wide, so one
	// stray runtime allocation over the run must not read as a fraction;
	// an allocation on every dispatch still reads ≥ 1.
	allocs := (ms1.Mallocs - ms0.Mallocs) / uint64(b.N)
	perSec := 0.0
	if wall > 0 {
		perSec = float64(b.N) / wall.Seconds()
	}
	b.ReportMetric(perSec, "events/sec")
	b.ReportMetric(float64(allocs), "allocs/event")
	rec := benchEngineRecord{
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Timers:             nTimers,
		Events:             prof.Events,
		EventsPerSec:       perSec,
		NsPerEvent:         float64(wall.Nanoseconds()) / float64(b.N),
		AllocsPerOp:        allocs,
		Inserts:            prof.Inserts,
		Dispatches:         prof.Dispatches,
		MaxTimerDepth:      prof.MaxDepth,
		Cascades:           prof.Cascades,
		OverflowPromotions: prof.OverflowPromotions,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_engine.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// benchMgmtRow is one cell of the BENCH_mgmt.json scale matrix: one
// fleet scale.
type benchMgmtRow struct {
	Scale       int `json:"scale"` // fleet multiplier: 1, 10, 100
	Nodes       int `json:"nodes"`
	Stores      int `json:"stores"`
	VMDKs       int `json:"vmdks"`
	ActiveVMDKs int `json:"active_vmdks"` // runners issuing I/O (fixed across scales)
	Iterations  int `json:"iterations"`
	// WindowWallUS is the mean wall-clock cost of simulating one
	// management window: one epoch of the observe → plan → execute
	// pipeline plus the foreground I/O that populates its windows.
	WindowWallUS float64 `json:"window_wall_us"`
	Migrations   int64   `json:"migrations_started"`
}

// benchMgmtFile is the schema of BENCH_mgmt.json: shared run parameters
// plus the scale-matrix records (docs/BENCH.md documents every field).
type benchMgmtFile struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	Scheme     string         `json:"scheme"`
	WindowUS   float64        `json:"window_us"` // simulated window length
	Claim      string         `json:"claim"`
	Records    []benchMgmtRow `json:"records"`
}

const benchMgmtClaim = "with a fixed active set (32 runners), the epoch " +
	"costs O(stores + touched VMDKs): window_wall_us grows sublinearly in " +
	"scale, because per-VMDK work walks only the touched VMDKs"

// benchMgmtRows accumulates cells across the BenchmarkManagerEpochScale
// sub-benchmarks; keyed by scale so go test's calibration reruns
// overwrite instead of duplicating.
var (
	benchMgmtMu   sync.Mutex
	benchMgmtRows = map[int]benchMgmtRow{}
)

// benchMgmtScales defines the matrix: 1× is the single-node baseline the
// old BenchmarkManagerEpoch measured; 10× and 100× grow the fleet and
// the VMDK population while the active set stays 32 runners, so only
// the per-store work and the idle VMDK population grow.
var benchMgmtScales = []struct {
	scale, nodes, vmdks int
	vmdkSize            int64
}{
	{1, 1, 32, 4 << 20},
	{10, 10, 320, 4 << 20},
	{100, 34, 10000, 1 << 20},
}

// writeBenchMgmt rewrites BENCH_mgmt.json from the accumulated cells and
// enforces the scaling claim once both endpoints are in: the 100× cell
// must cost less than 20× the 1× cell (a 100× fleet with the same
// activity; the generous factor absorbs timer noise while still failing
// on any return to per-epoch walks over every resident VMDK).
func writeBenchMgmt(b *testing.B) {
	b.Helper()
	rows := make([]benchMgmtRow, 0, len(benchMgmtRows))
	for _, r := range benchMgmtRows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Scale < rows[j].Scale })
	out := benchMgmtFile{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scheme:     mgmt.Full().Name,
		WindowUS:   sim.Millisecond.Seconds() * 1e6,
		Claim:      benchMgmtClaim,
		Records:    rows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_mgmt.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	one, ok1 := benchMgmtRows[1]
	hundred, ok100 := benchMgmtRows[100]
	if ok1 && ok100 && hundred.WindowWallUS > 20*one.WindowWallUS {
		b.Errorf("scaling claim violated: window cost grew %.1f× over a 100× fleet (1×: %.0fµs, 100×: %.0fµs)",
			hundred.WindowWallUS/one.WindowWallUS, one.WindowWallUS, hundred.WindowWallUS)
	}
}

// BenchmarkManagerEpochScale times the management loop's hot path across
// fleet scales: N nodes of three datastores each (NVDIMM, SSD, HDD), the
// full scheme (contention-aware estimation, redirection, tagging), and a
// fixed 32-runner foreground so activity is constant while the fleet
// grows 1× → 10× → 100×. One benchmark iteration advances the simulation
// by exactly one management window — one epoch. The cells land in
// BENCH_mgmt.json with the complexity claim, and the benchmark itself
// fails if the 100× cell stops being sublinear in fleet size.
func BenchmarkManagerEpochScale(b *testing.B) {
	const nActive = 32
	model := benchSharedModel(b)
	for _, sc := range benchMgmtScales {
		b.Run(fmt.Sprintf("scale%dx", sc.scale), func(b *testing.B) {
			c := cluster.New()
			for n := 0; n < sc.nodes; n++ {
				if _, err := c.AddNode(cluster.NodeConfig{
					Name:     fmt.Sprintf("bench%d", n),
					Channels: 4,
					NVDIMM:   core.ScaledNVDIMMConfig(fmt.Sprintf("nv%d", n)),
					SSD:      core.ScaledSSDConfig(fmt.Sprintf("ssd%d", n)),
					HDD:      core.ScaledHDDConfig(fmt.Sprintf("hdd%d", n), uint64(7+n)),
				}, sim.NewRNG(uint64(7+n))); err != nil {
					b.Fatal(err)
				}
			}
			stores := c.AllStores()
			cfg := mgmt.DefaultConfig()
			cfg.Window = sim.Millisecond
			cfg.MinWindowRequests = 1
			mgr := mgmt.NewManager(c.Eng, cfg, mgmt.Full(), stores)
			mgr.SetModel(device.KindNVDIMM, model)
			p := workload.Profile{Name: "bench", WriteRatio: 0.3, ReadRand: 0.5, WriteRand: 0.5,
				IOSize: 4096, OIO: 1, Footprint: sc.vmdkSize, ThinkTime: 100 * sim.Microsecond}
			// Round-robin placement spreads VMDKs — and the first
			// nActive runners — across the whole fleet.
			for i := 0; i < sc.vmdks; i++ {
				v, err := stores[i%len(stores)].CreateVMDK(i+1, sc.vmdkSize)
				if err != nil {
					b.Fatal(err)
				}
				if i < nActive {
					workload.NewRunner(c.Eng, sim.NewRNG(uint64(i)+1), p, v, i).Start()
				}
			}
			mgr.Start()
			if err := c.Eng.RunFor(2 * cfg.Window); err != nil { // warm the windows
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if err := c.Eng.RunFor(cfg.Window); err != nil {
					b.Fatal(err)
				}
			}
			wall := time.Since(start)
			b.StopTimer()
			b.ReportMetric(wall.Seconds()*1e6/float64(b.N), "window_wall_us/op")
			benchMgmtMu.Lock()
			defer benchMgmtMu.Unlock()
			benchMgmtRows[sc.scale] = benchMgmtRow{
				Scale:        sc.scale,
				Nodes:        sc.nodes,
				Stores:       len(stores),
				VMDKs:        sc.vmdks,
				ActiveVMDKs:  nActive,
				Iterations:   b.N,
				WindowWallUS: wall.Seconds() * 1e6 / float64(b.N),
				Migrations:   int64(mgr.Stats().MigrationsStarted),
			}
			writeBenchMgmt(b)
		})
	}
}

// benchParallelCells is the slice of the experiment matrix used to
// measure harness speedup: cells without model training, covering all
// three intra-cell fan-out shapes (fig5 sweep points, fig9 policy
// schedules, faults scenario systems) plus cells that only parallelize at
// the matrix level.
var benchParallelCells = []string{"table4", "fig5", "fig9", "fig14", "fig15", "dax", "faults"}

// benchParallelRecord is the schema of BENCH_parallel.json. Speedup is a
// pointer so a run that cannot measure parallelism (GOMAXPROCS=1: both
// schedules execute on one core and the ratio is pure noise) records an
// honest null plus a note instead of a fabricated ~1.0 "speedup".
type benchParallelRecord struct {
	Cells        []string `json:"cells"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	Iterations   int      `json:"iterations"`
	SequentialS  float64  `json:"sequential_s"` // mean wall time at -jobs 1
	ParallelS    float64  `json:"parallel_s"`   // mean wall time at -jobs GOMAXPROCS
	Speedup      *float64 `json:"speedup"`      // null when unmeasurable
	ParallelJobs int      `json:"parallel_jobs"`
	Note         string   `json:"note,omitempty"`
}

// BenchmarkExperimentsParallel times the same matrix slice under the
// sequential reference schedule (-jobs 1) and sharded across GOMAXPROCS
// workers, reports the speedup as a metric, and records both wall times
// in BENCH_parallel.json. The outputs are byte-identical between the two
// schedules (see TestMatrixParallelDeterminism in internal/experiments);
// this benchmark measures only the wall-clock gap.
func BenchmarkExperimentsParallel(b *testing.B) {
	run := func(jobs int) time.Duration {
		sc := experiments.Quick()
		sc.Jobs = jobs
		start := time.Now()
		res, err := experiments.RunMatrix(experiments.MatrixOptions{
			Names: benchParallelCells, Scale: sc,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Name, r.Err)
			}
		}
		return time.Since(start)
	}
	var seq, par time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq += run(1)
		par += run(0)
	}
	b.StopTimer()
	b.ReportMetric(seq.Seconds()/float64(b.N), "seq_s/op")
	b.ReportMetric(par.Seconds()/float64(b.N), "par_s/op")
	rec := benchParallelRecord{
		Cells:        benchParallelCells,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Iterations:   b.N,
		SequentialS:  seq.Seconds() / float64(b.N),
		ParallelS:    par.Seconds() / float64(b.N),
		ParallelJobs: runtime.GOMAXPROCS(0),
	}
	if rec.GOMAXPROCS > 1 && par > 0 {
		speedup := float64(seq) / float64(par)
		rec.Speedup = &speedup
		b.ReportMetric(speedup, "speedup")
	} else {
		rec.Note = "speedup not measurable at GOMAXPROCS=1; run with more cores to record it"
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_parallel.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// benchLintRecord is the BENCH_lint.json schema: the cost of one full
// hsmlint pass over the module (fresh parse + type-check every
// iteration; the per-module caches are deliberately not reused across
// iterations, matching a cold CI invocation).
type benchLintRecord struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Checks       int     `json:"checks"`
	Packages     int     `json:"packages"`
	Findings     int     `json:"findings"`
	Iterations   int     `json:"iterations"`
	MsPerRun     float64 `json:"ms_per_run"`
	NsPerPackage float64 `json:"ns_per_package"`
}

// BenchmarkHsmlint times the full lint suite — all nine checks,
// including the module-wide call-graph build — over this repository,
// and records the cost in BENCH_lint.json so linter growth is tracked
// like every other perf claim. One benchmark op is one complete run
// (module load, type check, graph, checks, suppression).
func BenchmarkHsmlint(b *testing.B) {
	m, err := lint.LoadModule(".")
	if err != nil {
		b.Fatal(err)
	}
	dirs, err := m.Dirs()
	if err != nil {
		b.Fatal(err)
	}
	if len(dirs) == 0 {
		b.Fatal("no packages to lint")
	}
	findings := 0
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		fs, err := lint.Run(".", dirs, nil)
		if err != nil {
			b.Fatal(err)
		}
		findings = len(fs)
	}
	wall := time.Since(start)
	b.StopTimer()
	if findings != 0 {
		b.Fatalf("repository not lint-clean: %d finding(s)", findings)
	}
	perRun := wall.Seconds() * 1e3 / float64(b.N)
	perPkg := float64(wall.Nanoseconds()) / float64(b.N) / float64(len(dirs))
	b.ReportMetric(perRun, "ms/run")
	b.ReportMetric(perPkg/1e6, "ms/package")
	rec := benchLintRecord{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Checks:       len(lint.Checks()),
		Packages:     len(dirs),
		Findings:     findings,
		Iterations:   b.N,
		MsPerRun:     perRun,
		NsPerPackage: perPkg,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_lint.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
