// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload (corunner, hotset or fleet)
// through the public core API for a fixed host-time budget, checks that
// every run of the seed produced the same simulated results, and prints
// one JSON result line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run. See README.md beside this file.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload corunner --seed 1 --seconds 40 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// defaultSeed is the workload seed claims are developed on; heldOutSeed
// is kept back for confirming them (README.md).
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// length overrides the workload's simulated run length (0 = keep).
	length sim.Time
	// spansDir is where a traced run writes its spans.
	spansDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "corunner", "workload to run: corunner, hotset or fleet")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (seed %d is held out for confirming claims)", heldOutSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 40, "host seconds to keep repeating measured runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.seed = uint64(*seed)
	cfg.spansDir = filepath.Join(".bench_build", "spans")

	res, problems, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// repKind is what one repetition measures besides the simulated results.
type repKind int

const (
	// timedRep times the run and counts its allocations, untraced.
	timedRep repKind = iota
	// tracedRep records spans and boundary counts and a CPU profile.
	tracedRep
	// heapRep forces a GC at every window boundary and reads the live
	// heap; the forced collections disturb its timing, so it is not timed.
	heapRep
)

func (k repKind) String() string {
	return [...]string{"timed", "traced", "heap"}[k]
}

// repResult is what one repetition (one measured run) produced.
type repResult struct {
	kind       repKind
	simSeed    uint64 // core.Options.Seed
	trained    bool   // this repetition trained the model (else reused it)
	model      *perfmodel.Model
	train      time.Duration // core.TrainScaledNVDIMMModel
	build      time.Duration // core.NewSystem
	wall       time.Duration // Start through drain and Report
	heapPeak   uint64        // heapRep only: peak live bytes
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	counts     layerCounts
	digest     string
	problems   []string
	cpu        map[string]int64 // tracedRep only: CPU ns per module
	tr         *tracer          // tracedRep only
}

// liveHeapMetric is the runtime/metrics name of the bytes the last
// completed GC cycle marked live. Right after a forced GC it is exactly
// the heap the run holds.
const liveHeapMetric = "/gc/heap/live:bytes"

// runRep sets up one system with simulation seed simSeed (training a
// model from trainSeed first when model is nil), runs it for length
// simulated time one management window per Engine.RunFor call, then
// drains it and takes its Report.
func runRep(s scenario, trainSeed, simSeed uint64, length sim.Time, kind repKind, model *perfmodel.Model) (repResult, error) {
	res := repResult{kind: kind, simSeed: simSeed, model: model}
	var tr *tracer
	if kind == tracedRep {
		tr = newTracer()
		res.tr = tr
	}

	t0 := time.Now()
	setup := tr.begin("setup")
	sp := tr.begin("perfmodel.train")
	if res.model == nil {
		m, err := core.TrainScaledNVDIMMModel(trainSeed)
		if err != nil {
			return res, err
		}
		res.model = m
		res.trained = true
	}
	tr.end(sp)
	t1 := time.Now()
	sp = tr.begin("core.build")
	opts := s.options(simSeed)
	opts.Model = res.model
	sys, err := core.NewSystem(opts)
	if err != nil {
		return res, err
	}
	tr.end(sp)
	tr.end(setup)
	t2 := time.Now()
	res.train, res.build = t1.Sub(t0), t2.Sub(t1)

	eng := sys.Cluster.Eng
	eng.EnableProfiling()
	tr.attach(sys)
	window := sys.Opts.Mgmt.Window
	heap := []metrics.Sample{{Name: liveHeapMetric}}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if kind == tracedRep {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return res, err
		}
	}

	start := time.Now()
	measured := tr.begin("run")
	sys.Start()
	for end := eng.Now() + length; eng.Now() < end; {
		step := window
		if rest := end - eng.Now(); rest < step {
			step = rest
		}
		sp = tr.begin("sim.run_for")
		err = eng.RunFor(step)
		tr.end(sp)
		if err != nil {
			break
		}
		if kind == heapRep {
			runtime.GC()
			metrics.Read(heap)
			res.heapPeak = max(res.heapPeak, heap[0].Value.Uint64())
		}
	}
	sys.Stop()
	if err == nil {
		sp = tr.begin("drain")
		err = drain(sys, window)
		tr.end(sp)
	}
	sp = tr.begin("core.report")
	rep := sys.Report()
	tr.end(sp)
	tr.end(measured)
	res.wall = time.Since(start)

	if kind == tracedRep {
		pprof.StopCPUProfile()
		cpu, perr := moduleCPU(prof.Bytes())
		if perr != nil {
			return res, perr
		}
		res.cpu = cpu
	}
	if err != nil {
		return res, err
	}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.gcCycles = after.NumGC - before.NumGC

	res.counts = collectCounts(sys)
	res.problems = checkRun(sys, rep, res.counts, length)
	if tr != nil {
		res.problems = append(res.problems, checkTracer(tr, res.counts)...)
	}
	res.digest, err = digest(rep, res.counts)
	return res, err
}

// maxDrain bounds the drain: requests still in flight this long after
// the workloads stopped count as failed.
const maxDrain = sim.Second

// drain runs the stopped system one window at a time until no workload
// has a request in flight, for at most maxDrain of simulated time.
func drain(sys *core.System, window sim.Time) error {
	eng := sys.Cluster.Eng
	for end := eng.Now() + maxDrain; eng.Now() < end; {
		busy := false
		for _, r := range sys.Runners {
			if r.InFlight() > 0 {
				busy = true
				break
			}
		}
		if !busy {
			return nil
		}
		if err := eng.RunFor(window); err != nil {
			return err
		}
	}
	return nil
}

// checkRun applies the correctness gates to one drained run.
func checkRun(sys *core.System, rep core.Report, c layerCounts, length sim.Time) []string {
	var out []string
	fail := func(format string, args ...interface{}) { out = append(out, fmt.Sprintf(format, args...)) }
	if c.IOErrored > 0 || c.IOInFlight > 0 {
		fail("%d requests errored and %d were still in flight after the drain", c.IOErrored, c.IOInFlight)
	}
	if c.IOIssued != c.IOCompleted+c.IOErrored+c.IOInFlight {
		fail("issued %d != completed %d + errored %d + in flight %d", c.IOIssued, c.IOCompleted, c.IOErrored, c.IOInFlight)
	}
	if rep.IOErrors > 0 {
		fail("devices report %d failed completions", rep.IOErrors)
	}
	for _, r := range sys.Runners {
		if r.Completed() == 0 {
			fail("workload %d (%s) completed no requests", r.ID(), r.Profile().Name)
		}
	}
	if rep.Elapsed < length {
		fail("simulated %v, want at least %v", rep.Elapsed, length)
	}
	if m := c.Mgmt; m.MigrationsCompleted > m.MigrationsStarted {
		fail("%d migrations completed but only %d started", m.MigrationsCompleted, m.MigrationsStarted)
	}
	if c.Engine.Events != sys.Cluster.Eng.Processed() {
		fail("engine profile counts %d events, engine processed %d", c.Engine.Events, sys.Cluster.Eng.Processed())
	}
	if t := sys.Telemetry(); t != nil && t.SampleEvery > 0 {
		if want := int(length / t.SampleEvery); c.TelemetrySamples < want {
			fail("telemetry sampler recorded %d samples, want at least %d", c.TelemetrySamples, want)
		}
	}
	return out
}

// checkTracer checks that the boundary hooks saw every request and epoch.
func checkTracer(t *tracer, c layerCounts) []string {
	var out []string
	if t.counts.Requests != c.IOIssued {
		out = append(out, fmt.Sprintf("traced target saw %d requests, runners issued %d", t.counts.Requests, c.IOIssued))
	}
	if t.counts.Epochs != c.Mgmt.Epochs {
		out = append(out, fmt.Sprintf("traced OnEpoch saw %d epochs, manager ran %d", t.counts.Epochs, c.Mgmt.Epochs))
	}
	return out
}

const (
	// setupReps is how many repetitions train the model, timing the
	// whole set-up; later ones reuse the first model (training is
	// deterministic) so more of the budget goes to measured runs.
	setupReps = 5
	// minTraced is the fewest timed and traced repetitions of a traced
	// run; two of each let every digest be compared with another.
	minTraced = 2
)

// simSeed is the core.Options.Seed of input variant v of a run seed,
// when a run cycles through n variants.
func simSeed(seed uint64, v, n int) uint64 { return seed*uint64(n) + uint64(v) + 1 }

// schedule returns the kind and input variant of repetition i. An
// end-to-end run times every repetition, cycling through n variants.
// A traced run uses variant 0 only: it probes the heap once, then
// alternates timed and traced repetitions so both see the same machine
// conditions.
func schedule(trace bool, i, n int) (repKind, int) {
	switch {
	case !trace:
		return timedRep, i % n
	case i == 0:
		return heapRep, 0
	case i%2 == 1:
		return timedRep, 0
	default:
		return tracedRep, 0
	}
}

// run repeats measured runs of the configured workload until the host
// time budget is spent and every input and kind has run, then reduces
// them to the result line. progress receives one line per repetition.
func run(cfg config, progress io.Writer) (result, []string, error) {
	s, err := scenarioByName(cfg.workload)
	if err != nil {
		return result{}, nil, err
	}
	length := s.length
	if cfg.length > 0 {
		length = cfg.length
	}
	// Every input runs at least once and the first twice, so the digest
	// of a repeated input is always compared.
	least := s.variants + 1
	if cfg.trace {
		least = 1 + 2*minTraced
	}
	var reps []repResult
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	fmt.Fprintf(progress, "perfbench: workload %s, seed %d, %v simulated per run, gomaxprocs %d, %s\n",
		s.name, cfg.seed, length, runtime.GOMAXPROCS(0), runtime.Version())
	for i := 0; i < least || time.Now().Before(deadline); i++ {
		kind, v := schedule(cfg.trace, i, s.variants)
		var model *perfmodel.Model
		if i >= setupReps {
			model = reps[0].model
		}
		r, err := runRep(s, cfg.seed, simSeed(cfg.seed, v, s.variants), length, kind, model)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s seed %d repetition %d: %w", s.name, cfg.seed, i, err)
		}
		fmt.Fprintf(progress, "%s seed %d rep %d (%s, sim seed %d): setup %.3fs, wall %.3fs (%.4f s/s), %d events, digest %.12s\n",
			s.name, cfg.seed, i, kind, r.simSeed, (r.train + r.build).Seconds(), r.wall.Seconds(),
			r.wall.Seconds()/length.Seconds(), r.counts.Engine.Events, r.digest)
		if r.tr != nil {
			// Write the spans out once the repetition ends (each traced
			// repetition overwrites the last one's file) and release them
			// and the engine, which holds the whole system: left in the
			// live heap they would raise the GC target and so change the
			// GC cycles and times of the repetitions that follow.
			if err := writeSpans(cfg, r.tr, progress); err != nil {
				return result{}, nil, err
			}
			r.tr.spans, r.tr.eng = nil, nil
		}
		reps = append(reps, r)
	}

	res := result{Metrics: make(map[string]metric)}
	var problems []string
	first := make(map[uint64]int) // sim seed → its first repetition
	for i, r := range reps {
		res.Attempted += r.counts.IOIssued
		res.Failed += r.counts.IOErrored + r.counts.IOInFlight
		for _, p := range r.problems {
			problems = append(problems, fmt.Sprintf("repetition %d: %s", i, p))
		}
		j, seen := first[r.simSeed]
		if !seen {
			first[r.simSeed] = i
		} else if r.digest != reps[j].digest {
			problems = append(problems, fmt.Sprintf("repetition %d (%s): simulated digest %s differs from repetition %d's %s",
				i, r.kind, r.digest, j, reps[j].digest))
		}
	}
	problems = append(problems, tracerCountProblems(reps)...)
	res.Correct = len(problems) == 0

	if cfg.trace {
		for _, m := range perLayerMetrics(reps, length) {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	} else {
		for _, m := range endToEndMetrics(reps, length) {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	return res, problems, nil
}

// tracerCountProblems checks that the counts taken at the traced
// boundaries repeat exactly across traced repetitions.
func tracerCountProblems(reps []repResult) []string {
	var first *tracer
	var out []string
	for i, r := range reps {
		switch {
		case r.tr == nil:
		case first == nil:
			first = r.tr
		case r.tr.counts != first.counts:
			out = append(out, fmt.Sprintf("repetition %d: traced boundary counts %+v differ from %+v", i, r.tr.counts, first.counts))
		}
	}
	return out
}

// writeSpans writes a traced repetition's spans.
func writeSpans(cfg config, t *tracer, progress io.Writer) error {
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := t.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(progress, "perfbench: wrote %d spans to %s (%d dropped)\n", len(t.spans), path, t.dropped)
	return nil
}

// namedMetric is one metric before it goes into the result map.
type namedMetric struct {
	name  string
	unit  string
	value float64
}

// quantile returns the p-quantile of xs, interpolated linearly between
// the two nearest order statistics (0 when empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := p * float64(len(s)-1)
	i := int(k)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(k-float64(i))
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantileOf returns the p-quantile of f over the repetitions keep
// selects.
func quantileOf(reps []repResult, keep func(repResult) bool, f func(repResult) float64, p float64) float64 {
	var xs []float64
	for _, r := range reps {
		if keep(r) {
			xs = append(xs, f(r))
		}
	}
	return quantile(xs, p)
}

// medianOf returns the median of f over the repetitions keep selects.
func medianOf(reps []repResult, keep func(repResult) bool, f func(repResult) float64) float64 {
	return quantileOf(reps, keep, f, 0.5)
}

func isTimed(r repResult) bool   { return r.kind == timedRep }
func isTraced(r repResult) bool  { return r.kind == tracedRep }
func isHeap(r repResult) bool    { return r.kind == heapRep }
func isTrained(r repResult) bool { return r.trained }

// wallQuantile is the quantile of a run's repetition times that
// wall_per_sim_s reports. On a shared host, other tenants slow the
// machine for stretches of tens of seconds, by up to half, and a
// slowdown only ever adds time; a low quantile reads the repetitions
// that ran on the quiet machine, where the median moves with however
// much of the run a slow stretch covered.
const wallQuantile = 0.1

// endToEndMetrics reduces an end-to-end run's repetitions to the
// metrics a user sees.
func endToEndMetrics(reps []repResult, length sim.Time) []namedMetric {
	return []namedMetric{
		{"setup_s", "s", medianOf(reps, isTrained, func(r repResult) float64 { return (r.train + r.build).Seconds() })},
		{"wall_per_sim_s", "s/s", quantileOf(reps, isTimed, func(r repResult) float64 { return r.wall.Seconds() / length.Seconds() }, wallQuantile)},
	}
}

// perLayerMetrics reduces a traced run's repetitions to the per-layer
// metrics. Simulated counts come from the first repetition (every
// repetition reproduces them); host CPU per module is the mean over
// traced repetitions; timings and allocation rates come from the
// untraced repetitions.
func perLayerMetrics(reps []repResult, length sim.Time) []namedMetric {
	c := reps[0].counts
	events := float64(c.Engine.Events)
	perEvent := func(f func(repResult) float64) float64 {
		return medianOf(reps, isTimed, func(r repResult) float64 { return ratio(f(r), events) })
	}
	untracedWall := medianOf(reps, isTimed, func(r repResult) float64 { return r.wall.Seconds() })
	tracedWall := medianOf(reps, isTraced, func(r repResult) float64 { return r.wall.Seconds() })

	cpuNS := make(map[string]int64)
	var nTraced float64
	var first *tracer
	for _, r := range reps {
		if r.kind != tracedRep {
			continue
		}
		if first == nil {
			first = r.tr
		}
		nTraced++
		for m, ns := range r.cpu {
			cpuNS[m] += ns
		}
	}
	self := func(module string) namedMetric {
		return namedMetric{module + ".self_s", "s", ratio(float64(cpuNS[module])/1e9, nTraced)}
	}
	cnt := func(name string, v uint64) namedMetric { return namedMetric{name, "count", float64(v)} }
	m := c.Mgmt

	return []namedMetric{
		self("sim"),
		cnt("sim.events", c.Engine.Events),
		{"sim.events_per_s", "1/s", ratio(events, untracedWall)},
		cnt("sim.max_pending", uint64(c.Engine.MaxDepth)),
		cnt("sim.cascades", c.Engine.Cascades),
		cnt("sim.overflow_promotions", c.Engine.OverflowPromotions),

		self("runtime"),
		{"runtime.allocs_per_event", "1/event", perEvent(func(r repResult) float64 { return float64(r.mallocs) })},
		{"runtime.alloc_bytes_per_event", "B/event", perEvent(func(r repResult) float64 { return float64(r.allocBytes) })},
		{"runtime.heap_peak_mb", "MB", medianOf(reps, isHeap, func(r repResult) float64 { return float64(r.heapPeak) / 1e6 })},
		{"runtime.gc_cycles", "count", medianOf(reps, isTimed, func(r repResult) float64 { return float64(r.gcCycles) })},

		self("workload"),
		cnt("workload.io_issued", c.IOIssued),
		cnt("workload.io_completed", c.IOCompleted),
		cnt("workload.io_errored", c.IOErrored),
		{"workload.io_failed_frac", "ratio", ratio(float64(c.IOErrored+c.IOInFlight), float64(c.IOIssued))},
		cnt("workload.mem_lines", c.MemLines),

		self("dram"),
		cnt("dram.accesses", c.DRAMAccesses),
		{"dram.row_hit_rate", "ratio", c.DRAMRowHitRate},
		self("trace"),

		self("bus"),
		cnt("bus.mem_grants", c.BusMemGrants),
		cnt("bus.io_grants", c.BusIOGrants),
		{"bus.io_wait_us_mean", "us", c.BusIOWaitUSMean},
		{"bus.util", "ratio", c.BusUtil},

		self("nvdimm"),
		cnt("nvdimm.requests", c.NVDIMMRequests),
		cnt("nvdimm.bypassed_reads", c.NVDIMMBypassedReads),
		cnt("nvdimm.stalled_writes", c.NVDIMMStalledWrites),
		{"nvdimm.latency_us_mean", "us", c.NVDIMMLatencyUSMean},
		{"nvdimm.contention_us", "us", c.NVDIMMContentionUS},
		self("device"),

		self("cache"),
		cnt("cache.hits", c.CacheHits),
		cnt("cache.misses", c.CacheMisses),
		{"cache.hit_ratio", "ratio", ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses))},

		self("memsched"),
		cnt("memsched.completed_persistent", c.SchedCompletedPersistent),
		cnt("memsched.completed_migrated", c.SchedCompletedMigrated),
		cnt("memsched.npb_insertions", c.SchedNPBInsertions),
		{"memsched.persistent_wait_us", "us", c.SchedPersistentWaitUS},
		{"memsched.migrated_wait_us", "us", c.SchedMigratedWaitUS},

		self("ftl"),
		cnt("ftl.user_writes", c.FTLUserWrites),
		cnt("ftl.gc_runs", c.FTLGCRuns),
		cnt("ftl.gc_writes", c.FTLGCWrites),
		cnt("ftl.erases", c.FTLErases),
		{"ftl.write_amplification", "ratio", c.FTLWriteAmp},
		self("flash"),

		self("ssd"),
		cnt("ssd.requests", c.SSDRequests),
		self("hdd"),
		cnt("hdd.requests", c.HDDRequests),
		cnt("hdd.seeks", c.HDDSeeks),

		self("mgmt"),
		cnt("mgmt.epochs", m.Epochs),
		cnt("mgmt.migrations_started", m.MigrationsStarted),
		cnt("mgmt.migrations_completed", m.MigrationsCompleted),
		{"mgmt.migration_useful_frac", "ratio", c.usefulMigrationFrac()},
		{"mgmt.bytes_copied", "B", float64(m.BytesCopied)},
		{"mgmt.bytes_mirrored", "B", float64(m.BytesMirrored)},

		self("perfmodel"),
		{"perfmodel.train_s", "s", medianOf(reps, isTrained, func(r repResult) float64 { return r.train.Seconds() })},
		cnt("perfmodel.predict_calls", first.counts.PredictCalls),
		// The run trains nothing, so its perfmodel and mlmodel time is
		// prediction time.
		{"perfmodel.predict_s", "s", ratio(float64(cpuNS["perfmodel"]+cpuNS["mlmodel"])/1e9, nTraced)},
		self("mlmodel"),
		self("core"),
		{"core.build_s", "s", medianOf(reps, isTrained, func(r repResult) float64 { return r.build.Seconds() })},

		self("cluster"),
		cnt("cluster.transfers", first.counts.Transfers),
		{"cluster.network_bytes", "B", float64(c.NetworkBytes)},

		self("telemetry"),
		cnt("telemetry.samples", uint64(c.TelemetrySamples)),
		cnt("telemetry.tail_windows", uint64(c.TailWindows)),
		self("stats"),

		{"perfbench.trace_overhead", "s/s", (tracedWall - untracedWall) / length.Seconds()},
	}
}
