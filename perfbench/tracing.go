package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mgmt"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// span is one traced interval. SimStart and SimEnd are simulated
// nanoseconds. Start and End are host nanoseconds since the tracer was
// created, recorded only for the driver's own spans (set-up, windows,
// drain, report): the hooks the simulation calls into never read the
// wall clock (DESIGN.md §9), so their spans are 0 there. Parent is the
// index of the span that caused this one (-1 for roots). Request spans
// carry the request's ID and workload; other spans carry their own
// index as ID.
type span struct {
	Name     string `json:"name"`
	ID       uint64 `json:"id"`
	Workload int    `json:"workload,omitempty"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns,omitempty"`
	End      int64  `json:"end_ns,omitempty"`
	SimStart int64  `json:"sim_start_ns"`
	SimEnd   int64  `json:"sim_end_ns"`
}

// maxSpans bounds the spans one tracer keeps in memory; later spans are
// counted as dropped.
const maxSpans = 1 << 16

// tracer records spans and counts at the program's public boundaries,
// from outside the program: every hook is a pass-through wrapper or a
// chained callback installed on an assembled System. Spans stay in
// memory until write.
type tracer struct {
	origin  time.Time
	eng     *sim.Engine
	spans   []span
	dropped int
	current int // index of the innermost open driver span (-1 = none)

	counts boundaryCounts
}

// boundaryCounts are the calls the tracer's hooks saw.
type boundaryCounts struct {
	Requests     uint64
	PredictCalls uint64
	Transfers    uint64
	Epochs       uint64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), current: -1}
}

// now returns host nanoseconds since the tracer was created.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// simNow returns the simulated clock of the attached system (0 before
// attach).
func (t *tracer) simNow() int64 {
	if t.eng == nil {
		return 0
	}
	return int64(t.eng.Now())
}

// record keeps a finished span and returns its index (-1 if dropped).
func (t *tracer) record(s span) int {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	if s.ID == 0 {
		s.ID = uint64(len(t.spans))
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a driver span (setup, window, drain, report) nested under
// the current one and makes it current. On a nil tracer it does nothing.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	i := t.record(span{Name: name, Parent: t.current, Start: t.now(), SimStart: t.simNow()})
	if i >= 0 {
		t.current = i
	}
	return i
}

// end closes the driver span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	s.End, s.SimEnd = t.now(), t.simNow()
	t.current = s.Parent
}

// attach installs the boundary hooks on an assembled system: a
// pass-through target in front of every runner's VMDK, recording
// wrappers around the manager's NVDIMM predictor and its migration
// network, and a callback chained onto Manager.OnEpoch. On a
// nil tracer it does nothing.
func (t *tracer) attach(sys *core.System) {
	if t == nil {
		return
	}
	t.eng = sys.Cluster.Eng
	for i, r := range sys.Runners {
		r.Retarget(t.wrapTarget(sys.VMDKs[i]))
	}
	if sys.Model != nil {
		sys.Manager.SetModel(device.KindNVDIMM, &tracedPredictor{inner: sys.Model, t: t})
	}
	sys.Manager.SetNetwork(&tracedNetwork{inner: sys.Cluster, t: t})
	prev := sys.Manager.OnEpoch
	sys.Manager.OnEpoch = func(perf []mgmt.StorePerf) {
		t.counts.Epochs++
		simAt := t.simNow()
		t.record(span{Name: "mgmt.epoch", Parent: t.current, SimStart: simAt, SimEnd: simAt})
		if prev != nil {
			prev(perf)
		}
	}
}

// wrapTarget returns a pass-through for target that also forwards the
// optional persistence barrier when target has one.
func (t *tracer) wrapTarget(target workload.Target) workload.Target {
	base := tracedTarget{inner: target, t: t}
	if bt, ok := target.(workload.BarrierTarget); ok {
		return &tracedBarrierTarget{tracedTarget: base, barrier: bt}
	}
	return &base
}

// tracedTarget records one span per request, from submission to
// completion in simulated time, sharing the request's ID.
type tracedTarget struct {
	inner workload.Target
	t     *tracer
}

// Submit forwards r and records its span when it completes.
func (p *tracedTarget) Submit(r *trace.IORequest, done device.Completion) {
	t := p.t
	t.counts.Requests++
	parent, simStart := t.current, t.simNow()
	p.inner.Submit(r, func(c *trace.IORequest) {
		t.record(span{Name: "workload.io", ID: c.ID, Workload: c.Workload, Parent: parent,
			SimStart: simStart, SimEnd: t.simNow()})
		done(c)
	})
}

// tracedBarrierTarget is a tracedTarget whose target accepts barriers.
type tracedBarrierTarget struct {
	tracedTarget
	barrier workload.BarrierTarget
}

// Barrier forwards the persistence barrier.
func (p *tracedBarrierTarget) Barrier() { p.barrier.Barrier() }

// tracedPredictor records every prediction the manager asks for. Their
// host cost is the CPU profile's perfmodel and mlmodel time.
type tracedPredictor struct {
	inner perfmodel.Predictor
	t     *tracer
}

// PredictUS forwards the prediction and records its span.
func (p *tracedPredictor) PredictUS(wc trace.WC) float64 {
	t := p.t
	t.counts.PredictCalls++
	simAt := t.simNow()
	t.record(span{Name: "perfmodel.predict", Parent: t.current, SimStart: simAt, SimEnd: simAt})
	return p.inner.PredictUS(wc)
}

// tracedNetwork records one span per cross-node migration transfer.
type tracedNetwork struct {
	inner mgmt.Network
	t     *tracer
}

// Transfer forwards the transfer and records its span on delivery.
func (p *tracedNetwork) Transfer(srcNode, dstNode int, bytes int64, done func(error)) {
	t := p.t
	t.counts.Transfers++
	parent, simStart := t.current, t.simNow()
	p.inner.Transfer(srcNode, dstNode, bytes, func(err error) {
		t.record(span{Name: "cluster.transfer", Parent: parent, SimStart: simStart, SimEnd: t.simNow()})
		done(err)
	})
}

// write stores the spans as JSON lines in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
