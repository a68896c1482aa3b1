package experiments

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/memsched"
	"repro/internal/mgmt"
	"repro/internal/nvdimm"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// archApps is the workload subset used by the device-level architectural
// experiments (Figs. 14–16): one per behavioural family keeps the runs
// cheap while spanning the spectrum.
func archApps() []string {
	return []string{"bayes", "dfsioe_w", "nutchindexing", "pagerank", "sort", "wordcount", "kmeans", "dfsioe_r"}
}

// archRun drives one NVDIMM serving a persistent-store application while
// a VMDK migration targets it (destination role: migrated writes) and
// drains from it (source role: migrated reads). It returns the
// application's achieved I/O throughput (requests per simulated second).
func archRun(app string, pol memsched.Policy, bypass bool, migrate bool, scale Scale) float64 {
	eng := sim.NewEngine()
	ch := bus.NewChannel(eng, 0)
	cfg := core.ScaledNVDIMMConfig("nv")
	cfg.Sched = pol
	cfg.BypassMigratedReads = bypass
	cfg.CacheBlocks = 256
	cfg.MaxPendingFlush = 64
	// Persistent-store configuration: application writes program to flash
	// through the scheduler so barrier ordering binds throughput (§5.3.1),
	// with channel-scarce dispatch so epoch structure is visible.
	cfg.WriteThrough = true
	cfg.SchedSlots = 8
	n := nvdimm.New(eng, ch, cfg)

	p, _ := workload.AppProfile(app)
	p.Footprint = 8 << 20
	p.IOSize = 4096
	p.Persistent = true
	p.BarrierEvery = 2
	p.ThinkTime = 0

	mon := perfmodel.NewMonitor(n)
	r := workload.NewRunner(eng, sim.NewRNG(5), p, mon, 0)
	r.Start()

	if migrate {
		// Migration streams: writes arriving at this NVDIMM (destination)
		// and reads scanning it (source), both tagged ClassMigrated. The
		// copy engine paces chunks, so the migrated backlog stays bounded
		// relative to the scheduler's slots — Policy One's gain comes from
		// filling barrier-stall slots, not from flooding the queue.
		woff, roff := int64(64<<20), int64(128<<20)
		var wstream, rstream func()
		wstream = func() {
			// One 64 KB chunk (16 pages) per 3 ms: under the baseline the
			// epoch containing the chunk needs several program rounds
			// (Fig. 9a); Policy One moves the chunk into barrier-idle
			// slots instead.
			n.Submit(&trace.IORequest{Op: trace.OpWrite, Offset: woff, Size: 64 << 10, Class: trace.ClassMigrated},
				func(*trace.IORequest) { eng.Schedule(2*sim.Millisecond, wstream) })
			woff += 64 << 10
		}
		rstream = func() {
			n.Submit(&trace.IORequest{Op: trace.OpRead, Offset: roff, Size: 64 << 10, Class: trace.ClassMigrated},
				func(*trace.IORequest) { eng.Schedule(100*sim.Microsecond, rstream) })
			roff += 64 << 10
		}
		wstream()
		rstream()
	}

	warm := 4 * scale.SweepWindow
	eng.RunFor(warm)
	before := r.Completed()
	meas := 8 * scale.SweepWindow
	eng.RunFor(meas)
	completed := r.Completed() - before
	r.Stop()
	eng.Stop()
	return float64(completed) / meas.Seconds()
}

// Fig14Row is one application's normalized speedups.
type Fig14Row struct {
	App      string
	Baseline float64 // absolute IOPS under barrier-bound FCFS
	P1       float64 // speedup with Policy One
	P2       float64 // speedup with Policy Two
	Both     float64 // speedup with both + NPB
}

// Fig14Result reproduces Fig. 14: scheduling-policy speedups.
type Fig14Result struct {
	Rows []Fig14Row
	// Avg holds mean speedups across apps (P1, P2, Both).
	AvgP1, AvgP2, AvgBoth float64
}

// Fig14 compares the §5.3.1 scheduling policies on a migration-loaded
// NVDIMM.
func Fig14(scale Scale) Fig14Result {
	var res Fig14Result
	for _, app := range archApps() {
		base := archRun(app, memsched.Baseline(), false, true, scale)
		p1 := archRun(app, memsched.PolicyOne(), false, true, scale)
		p2 := archRun(app, memsched.PolicyTwo(), false, true, scale)
		both := archRun(app, memsched.Combined(2*sim.Millisecond), false, true, scale)
		row := Fig14Row{App: app, Baseline: base}
		if base > 0 {
			row.P1 = p1 / base
			row.P2 = p2 / base
			row.Both = both / base
		}
		res.Rows = append(res.Rows, row)
		res.AvgP1 += row.P1
		res.AvgP2 += row.P2
		res.AvgBoth += row.Both
	}
	n := float64(len(res.Rows))
	res.AvgP1 /= n
	res.AvgP2 /= n
	res.AvgBoth /= n
	return res
}

// String renders the report-text block printed under the
// "===== fig14 =====" header; the `fig14` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r Fig14Result) String() string {
	t := &table{header: []string{"app", "baseline IOPS", "P1 speedup", "P2 speedup", "both"}}
	for _, row := range r.Rows {
		t.add(row.App, fmt.Sprintf("%.0f", row.Baseline),
			ratio(row.P1), ratio(row.P2), ratio(row.Both))
	}
	return fmt.Sprintf("Fig. 14: scheduling-policy speedups (avg P1=%.2f P2=%.2f both=%.2f)\n%s",
		r.AvgP1, r.AvgP2, r.AvgBoth, t.String())
}

// Fig15Result reproduces Fig. 15: NVDIMM buffer-cache hit ratio under a
// migration read storm, with and without bypassing.
type Fig15Result struct {
	// RequestMarks are cumulative request counts at each sample.
	RequestMarks []uint64
	WithLRFU     []float64 // hit ratio series without bypass
	WithBypass   []float64 // hit ratio series with bypass
}

// Fig15 samples cache hit ratio as migration reads stream through.
func Fig15(scale Scale) Fig15Result {
	run := func(bypass bool) (marks []uint64, ratios []float64) {
		eng := sim.NewEngine()
		ch := bus.NewChannel(eng, 0)
		cfg := core.ScaledNVDIMMConfig("nv")
		cfg.BypassMigratedReads = bypass
		cfg.CacheBlocks = 256
		n := nvdimm.New(eng, ch, cfg)

		// Application traffic with a working set somewhat larger than the
		// cache (moderate locality, realistic re-reference rate).
		p := workload.Profile{Name: "hot", WriteRatio: 0.2, ReadRand: 0.8, WriteRand: 0.8,
			IOSize: 4096, OIO: 4, Footprint: 1 << 20, ThinkTime: 20 * sim.Microsecond}
		r := workload.NewRunner(eng, sim.NewRNG(3), p, n, 0)
		r.Start()
		eng.RunFor(2 * scale.SweepWindow) // warm the cache

		// Aggressive migration read storm: several concurrent scan streams
		// across a large cold extent (a VMDK being copied away).
		off := int64(32 << 20)
		var scan func()
		scan = func() {
			n.Submit(&trace.IORequest{Op: trace.OpRead, Offset: off, Size: 64 << 10, Class: trace.ClassMigrated},
				func(*trace.IORequest) { scan() })
			off += 64 << 10
		}
		for k := 0; k < 4; k++ {
			scan()
		}

		st := n.Cache().Stats()
		var cum uint64
		for w := 0; w < scale.SeriesWindows; w++ {
			st.ResetWindow()
			eng.RunFor(scale.SweepWindow)
			cum += st.WindowHits + st.WindowMisses
			marks = append(marks, cum)
			ratios = append(ratios, st.WindowHitRatio())
		}
		r.Stop()
		eng.Stop()
		return
	}
	var res Fig15Result
	res.RequestMarks, res.WithLRFU = run(false)
	_, res.WithBypass = run(true)
	return res
}

// FinalLRFU returns the last-window hit ratio without bypass.
func (r Fig15Result) FinalLRFU() float64 {
	if len(r.WithLRFU) == 0 {
		return 0
	}
	return r.WithLRFU[len(r.WithLRFU)-1]
}

// FinalBypass returns the last-window hit ratio with bypass.
func (r Fig15Result) FinalBypass() float64 {
	if len(r.WithBypass) == 0 {
		return 0
	}
	return r.WithBypass[len(r.WithBypass)-1]
}

// String renders the report-text block printed under the
// "===== fig15 =====" header; the `fig15` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r Fig15Result) String() string {
	t := &table{header: []string{"requests", "hit ratio (LRFU)", "hit ratio (bypass)"}}
	for i := range r.WithLRFU {
		t.add(fmt.Sprintf("%d", r.RequestMarks[i]), pct(r.WithLRFU[i]), pct(r.WithBypass[i]))
	}
	return fmt.Sprintf("Fig. 15: cache hit ratio under migration, LRFU vs bypassing\nLRFU   %s\nbypass %s\n%s",
		sparkline(r.WithLRFU), sparkline(r.WithBypass), t.String())
}

// Fig16Row is one app's combined-optimization speedup.
type Fig16Row struct {
	App      string
	Speedup  float64 // scheduling policies + bypass vs plain baseline
	Baseline float64
}

// Fig16Result reproduces Fig. 16: scheduling + bypassing combined.
type Fig16Result struct {
	Rows []Fig16Row
	Avg  float64
	Max  float64
}

// Fig16 measures the combined effect of both architectural techniques.
func Fig16(scale Scale) Fig16Result {
	var res Fig16Result
	for _, app := range archApps() {
		base := archRun(app, memsched.Baseline(), false, true, scale)
		opt := archRun(app, memsched.Combined(2*sim.Millisecond), true, true, scale)
		row := Fig16Row{App: app, Baseline: base}
		if base > 0 {
			row.Speedup = opt / base
		}
		res.Rows = append(res.Rows, row)
		res.Avg += row.Speedup
		if row.Speedup > res.Max {
			res.Max = row.Speedup
		}
	}
	res.Avg /= float64(len(res.Rows))
	return res
}

// String renders the report-text block printed under the
// "===== fig16 =====" header; the `fig16` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r Fig16Result) String() string {
	t := &table{header: []string{"app", "baseline IOPS", "speedup (sched+bypass)"}}
	for _, row := range r.Rows {
		t.add(row.App, fmt.Sprintf("%.0f", row.Baseline), ratio(row.Speedup))
	}
	return fmt.Sprintf("Fig. 16: combined architectural optimization (avg=%.2f max=%.2f)\n%s",
		r.Avg, r.Max, t.String())
}

// Fig17Row is one scheme's full-system outcome.
type Fig17Row struct {
	Scheme        string
	MeanIOPS      float64
	MeanLatencyUS float64
	// Speedup is BASIL's mean latency / this scheme's (latency speedup;
	// workload think time dominates the closed-loop IOPS, so latency is
	// the discriminating performance signal at simulation scale).
	Speedup float64
}

// Fig17Result reproduces Fig. 17: all techniques together vs BASIL.
type Fig17Result struct {
	Rows []Fig17Row
	// FullVsBCA is the extra gain of the complete design over BCA alone
	// (the paper reports 59%).
	FullVsBCA float64
}

// Fig17 runs the full-system comparison with 429.mcf.
func Fig17(scale Scale, model *perfmodel.Model) (Fig17Result, error) {
	var res Fig17Result
	schemes := []struct {
		sch    mgmt.Scheme
		bypass bool
		pol    memsched.Policy
	}{
		{mgmt.BASIL(), false, memsched.Baseline()},
		{mgmt.BCA(), false, memsched.Baseline()},
		{mgmt.BCALazy(), false, memsched.Baseline()},
		{mgmt.Full(), true, memsched.Combined(2 * sim.Millisecond)},
	}
	var basilLat, bcaLat, fullLat float64
	for _, s := range schemes {
		sys, err := core.NewSystem(core.Options{
			Scheme:              s.sch,
			MemProfile:          "429.mcf",
			MemScale:            4,
			Mgmt:                mgmtCfg(),
			MemPhasePeriod:      80 * sim.Millisecond,
			Seed:                31,
			Model:               model,
			SchedPolicy:         s.pol,
			BypassMigratedReads: s.bypass,
			FootprintDivisor:    scale.FootprintDivisor,
			NoHDDPlacement:      true,
			Scope:               scale.Scope,
		})
		if err != nil {
			return res, err
		}
		// Settle for one period, then measure the second: the paper's
		// hours-long runs report the post-convergence regime, not the
		// initial migration transient.
		sys.Start()
		sys.Cluster.Eng.RunFor(scale.RunTime)
		type snap struct {
			completed uint64
			latency   sim.Time
		}
		before := make([]snap, len(sys.Runners))
		for i, r := range sys.Runners {
			before[i] = snap{r.Completed(), r.TotalLatency()}
		}
		sys.Cluster.Eng.RunFor(scale.RunTime)
		sys.Stop()
		sys.Cluster.Eng.RunFor(scale.RunTime / 4)

		var iopsSum, latSum float64
		var nReq uint64
		secs := scale.RunTime.Seconds()
		for i, r := range sys.Runners {
			d := r.Completed() - before[i].completed
			iopsSum += float64(d) / secs
			latSum += (r.TotalLatency() - before[i].latency).Micros()
			nReq += d
		}
		row := Fig17Row{Scheme: s.sch.Name, MeanIOPS: iopsSum / float64(len(sys.Runners))}
		if nReq > 0 {
			row.MeanLatencyUS = latSum / float64(nReq)
		}
		switch s.sch.Name {
		case "BASIL":
			basilLat = row.MeanLatencyUS
		case "BCA":
			bcaLat = row.MeanLatencyUS
		case "BCA+Lazy+Arch":
			fullLat = row.MeanLatencyUS
		}
		res.Rows = append(res.Rows, row)
	}
	for i := range res.Rows {
		if res.Rows[i].MeanLatencyUS > 0 {
			res.Rows[i].Speedup = basilLat / res.Rows[i].MeanLatencyUS
		}
	}
	if fullLat > 0 {
		res.FullVsBCA = bcaLat/fullLat - 1
	}
	return res, nil
}

// String renders the report-text block printed under the
// "===== fig17 =====" header; the `fig17` row of EXPERIMENTS.md
// gives the exact command and a sample of this output.
func (r Fig17Result) String() string {
	t := &table{header: []string{"scheme", "mean IOPS", "mean latency", "speedup vs BASIL"}}
	for _, row := range r.Rows {
		t.add(row.Scheme, fmt.Sprintf("%.0f", row.MeanIOPS), us(row.MeanLatencyUS), ratio(row.Speedup))
	}
	return fmt.Sprintf("Fig. 17: putting it all together (full vs BCA alone: %s)\n%s",
		pct(r.FullVsBCA), t.String())
}
