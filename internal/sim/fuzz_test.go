package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"testing"
)

// FuzzEngineOps decodes a byte string into an interleaving of
// At/Schedule/After/Every/Stop/Reset/Step/Run/RunUntil/SetBudget operations
// and runs it on the timer-wheel Engine and on the reference heap of
// diff_test.go (extended below with the watchdog and Engine.Stop). Fire
// order, clock, pending and processed counts, and whether each Run or
// RunUntil tripped the watchdog must agree after every operation. A second
// pass reruns the program on a fresh Engine, answering every watchdog trip
// with SetBudget(0, 0) and a resumed run, and compares it with an
// unbudgeted reference run: a trip followed by a resume must not change
// the fire sequence.
//
// Encoding: each operation takes four bytes (code, a, b, c); missing
// trailing bytes read as zero. fuzzDelay maps (a, b) onto every wheel
// level and past the horizon; callback behaviour bytes (see fuzzProgram.
// event) make fired events schedule children, stop or reset handles, or
// call Engine.Stop. The seed corpus is testdata/fuzz/FuzzEngineOps.
func FuzzEngineOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*fuzzMaxOps {
			data = data[:4*fuzzMaxOps]
		}
		want := runFuzzProgram(newBudgetRef(), data, true, false)
		got := runFuzzProgram(wheelEngine{NewEngine()}, data, true, false)
		if err := want.diff(got); err != nil {
			t.Fatalf("wheel vs reference: %v", err)
		}
		want = runFuzzProgram(newBudgetRef(), data, false, false)
		got = runFuzzProgram(wheelEngine{NewEngine()}, data, true, true)
		if err := want.diff(got); err != nil {
			t.Fatalf("budget trip + resume vs unbudgeted: %v", err)
		}
	})
}

const (
	fuzzMaxOps   = 256
	fuzzMaxFires = 4000
)

// opEngine extends tengine with the engine-level operations the fuzz
// target interleaves.
type opEngine interface {
	tengine
	step() bool
	runUntilErr(t Time) error
	run() error
	setBudget(maxEvents uint64, maxSimTime Time)
	halt()
	processed() uint64
}

func (w wheelEngine) step() bool                 { return w.e.Step() }
func (w wheelEngine) runUntilErr(t Time) error   { return w.e.RunUntil(t) }
func (w wheelEngine) run() error                 { return w.e.Run() }
func (w wheelEngine) setBudget(n uint64, d Time) { w.e.SetBudget(n, d) }
func (w wheelEngine) halt()                      { w.e.Stop() }
func (w wheelEngine) processed() uint64          { return w.e.Processed() }
func (r *budgetRef) halt()                       { r.stopped = true }
func (r *budgetRef) processed() uint64           { return r.count }

// errRefBudget is the reference engine's watchdog error; only its
// presence is compared.
var errRefBudget = errors.New("reference watchdog tripped")

// budgetRef is the reference heap engine with the DESIGN.md §8 watchdog
// and Engine.Stop layered on: before each due dispatch a tripped or
// exhausted event budget, or a next event past the deadline, returns the
// error with the clock left at the last dispatched event.
type budgetRef struct {
	*refEngine
	count    uint64
	events   uint64 // absolute processed-count limit (0 = off)
	deadline Time   // absolute sim-time limit (0 = off)
	tripped  bool
	stopped  bool
}

func newBudgetRef() *budgetRef { return &budgetRef{refEngine: &refEngine{}} }

func (r *budgetRef) setBudget(maxEvents uint64, maxSimTime Time) {
	r.tripped = false
	r.events, r.deadline = 0, 0
	if maxEvents > 0 {
		r.events = r.count + maxEvents
	}
	if maxSimTime > 0 {
		r.deadline = r.clock + maxSimTime
	}
}

// head prunes cancelled entries and returns the earliest live one.
func (r *budgetRef) head() *refEvent {
	for len(r.queue) > 0 && r.queue[0].state == tmDead {
		heap.Pop(&r.queue)
	}
	if len(r.queue) == 0 {
		return nil
	}
	return r.queue[0]
}

func (r *budgetRef) dispatch() {
	ev := heap.Pop(&r.queue).(*refEvent)
	ev.state = tmRunning
	r.clock = ev.at
	r.live--
	r.count++
	ev.fn()
	if ev.state == tmRunning {
		if ev.period > 0 {
			r.push(ev, r.clock+ev.period)
		} else {
			ev.state = tmFree
		}
	}
}

func (r *budgetRef) step() bool {
	if r.head() == nil {
		return false
	}
	r.dispatch()
	return true
}

// run mirrors Engine.Run, which checks the budget before every step,
// even with nothing pending, and never advances the clock past the last
// event.
func (r *budgetRef) run() error {
	r.stopped = false
	for !r.stopped {
		h := r.head()
		if (r.events > 0 && r.count >= r.events) || (r.deadline > 0 && h != nil && h.at > r.deadline) {
			r.tripped = true
		}
		if r.tripped {
			return errRefBudget
		}
		if h == nil {
			break
		}
		r.dispatch()
	}
	return nil
}

func (r *budgetRef) runUntilErr(t Time) error {
	r.stopped = false
	for !r.stopped {
		h := r.head()
		if h == nil || h.at > t {
			break
		}
		if (r.events > 0 && r.count >= r.events) || (r.deadline > 0 && h.at > r.deadline) {
			r.tripped = true
		}
		if r.tripped {
			return errRefBudget
		}
		r.dispatch()
	}
	if !r.stopped && r.clock < t {
		r.clock = t
	}
	return nil
}

// fuzzDelay maps two bytes onto a delay: same-time ties, sub-tick gaps,
// level-0 ticks, the middle levels, and up to 2^52 ns — past the 2^50 ns
// wheel horizon, into the overflow tier. The bound keeps 256 operations
// of clock advance far from int64 overflow.
func fuzzDelay(a, b byte) Time {
	switch a % 5 {
	case 0:
		return Time(b % 4)
	case 1:
		return Time(b) * 3
	case 2:
		return Time(b) << tickBits
	case 3:
		return Time(b) << 16
	default:
		return Time(b) << (20 + a%25)
	}
}

// fuzzSnap is the observable engine state after one operation.
type fuzzSnap struct {
	op        int
	now       Time
	pending   int
	processed uint64
	fires     int
	tripped   bool
}

// fuzzRun is one program's full record: per-operation snapshots plus the
// fire trace.
type fuzzRun struct {
	snaps []fuzzSnap
	trace []fireRec
}

func (want fuzzRun) diff(got fuzzRun) error {
	n := min(len(want.trace), len(got.trace))
	for i := 0; i < n; i++ {
		if want.trace[i] != got.trace[i] {
			return fmt.Errorf("fire %d: want event %d at %v, got event %d at %v",
				i, want.trace[i].id, want.trace[i].at, got.trace[i].id, got.trace[i].at)
		}
	}
	for i := range want.snaps {
		if i >= len(got.snaps) || want.snaps[i] != got.snaps[i] {
			var g any = "none"
			if i < len(got.snaps) {
				g = got.snaps[i]
			}
			return fmt.Errorf("after op %d: want %+v, got %+v", i, want.snaps[i], g)
		}
	}
	if len(want.trace) != len(got.trace) || len(want.snaps) != len(got.snaps) {
		return fmt.Errorf("want %d fires/%d ops, got %d/%d",
			len(want.trace), len(want.snaps), len(got.trace), len(got.snaps))
	}
	return nil
}

// fuzzProgram interprets one byte string against one engine.
type fuzzProgram struct {
	eng     opEngine
	handles []thandle
	created int
	run     fuzzRun
}

// runFuzzProgram executes data on eng. budgets=false ignores SetBudget
// operations; resume=true answers every watchdog trip with
// SetBudget(0, 0) and a rerun of the same Run or RunUntil.
func runFuzzProgram(eng opEngine, data []byte, budgets, resume bool) fuzzRun {
	p := &fuzzProgram{eng: eng}
	for op := 0; 4*op < len(data); op++ {
		var code, a, b, c byte
		for i, dst := range []*byte{&code, &a, &b, &c} {
			if j := 4*op + i; j < len(data) {
				*dst = data[j]
			}
		}
		tripped := false
		now := eng.now()
		switch code % 10 {
		case 0:
			t := now + fuzzDelay(a, b)
			if c&1 != 0 {
				t = now - Time(b) // past: clamps to now
			}
			eng.at(t, p.event(c>>1, 2))
		case 1:
			d := fuzzDelay(a, b)
			if c&1 != 0 {
				d = -Time(b) // negative: clamps to zero
			}
			eng.schedule(d, p.event(c>>1, 2))
		case 2:
			p.handles = append(p.handles, eng.after(fuzzDelay(a, b), p.event(c, 2)))
		case 3:
			p.handles = append(p.handles, eng.every(1+fuzzDelay(a, b), p.event(c, 1)))
		case 4:
			if len(p.handles) > 0 {
				p.handles[int(a)%len(p.handles)].stop()
			}
		case 5:
			if len(p.handles) > 0 {
				p.handles[int(a)%len(p.handles)].reset(fuzzDelay(b, c))
			}
		case 6:
			eng.step()
		case 7, 9:
			t := now + fuzzDelay(a, b)
			if code%10 == 9 {
				t = now - Time(a) // a window that ended in the past
			}
			window := func() error { return eng.runUntilErr(t) }
			if code%10 == 9 && a&1 != 0 {
				window = eng.run // terminates: fuzzMaxFires stops periodic timers
			}
			if err := window(); err != nil {
				tripped = true
				if resume {
					eng.setBudget(0, 0)
					if err := window(); err != nil {
						panic("disarmed watchdog tripped: " + err.Error())
					}
				}
			}
		case 8:
			if budgets {
				var d Time
				if c != 0 {
					d = fuzzDelay(b, c)
				}
				eng.setBudget(uint64(a%16), d)
			}
		}
		p.run.snaps = append(p.run.snaps, fuzzSnap{
			op: op, now: eng.now(), pending: eng.pending(), processed: eng.processed(),
			fires: len(p.run.trace), tripped: tripped && !resume,
		})
	}
	return p.run
}

// event returns a callback that records its fire and then acts on the
// behaviour byte k: kind k&7, argument k>>3. Children inherit k with one
// less depth, so every chain is finite. Past fuzzMaxFires every fire
// stops all handles instead, so periodic timers die and runs terminate.
func (p *fuzzProgram) event(k byte, depth int) func() {
	id := p.created
	p.created++
	return func() {
		eng := p.eng
		p.run.trace = append(p.run.trace, fireRec{id: id, at: eng.now()})
		if len(p.run.trace) >= fuzzMaxFires {
			for _, h := range p.handles {
				h.stop()
			}
			p.handles = p.handles[:0]
			return
		}
		arg := int(k >> 3)
		switch k & 7 {
		case 2: // child in the same tick: ties and sub-tick gaps
			if depth > 0 {
				eng.schedule(Time(arg), p.event(k, depth-1))
			}
		case 3: // child a few ticks to a level up
			if depth > 0 {
				eng.schedule(Time(arg)<<10, p.event(k, depth-1))
			}
		case 4:
			if len(p.handles) > 0 {
				p.handles[arg%len(p.handles)].stop()
			}
		case 5:
			if len(p.handles) > 0 {
				p.handles[arg%len(p.handles)].reset(Time(arg) << tickBits)
			}
		case 6:
			eng.halt()
		case 7: // absolute time in the past: clamps to a tie at now
			if depth > 0 {
				eng.at(eng.now()-1, p.event(k, depth-1))
			}
		}
	}
}
