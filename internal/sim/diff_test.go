package sim

import (
	"container/heap"
	"testing"
)

// Differential test: the retired container/heap engine (reproduced below
// as refEngine, with the Timer semantics layered on its records) and the
// timer wheel run identical randomized schedules — same-time ties,
// negative delays, scheduling-in-the-past, beyond-horizon delays, and
// stop/reset storms — and must produce bit-identical dispatch order,
// final clocks, and pending counts. The op stream is derived from a
// shared seeded RNG consumed in dispatch order, so the slightest order
// divergence derails the streams and fails the comparison.

// tengine abstracts the two engines under test.
type tengine interface {
	schedule(delay Time, fn func())
	at(t Time, fn func())
	after(delay Time, fn func()) thandle
	every(period Time, fn func()) thandle
	now() Time
	runUntil(t Time)
	pending() int
}

// thandle abstracts a cancellable timer handle.
type thandle interface {
	stop() bool
	reset(d Time) bool
}

// --- wheel side: thin adapters over the real Engine/Timer ---

type wheelEngine struct{ e *Engine }

func (w wheelEngine) schedule(d Time, fn func())      { w.e.Schedule(d, fn) }
func (w wheelEngine) at(t Time, fn func())            { w.e.At(t, fn) }
func (w wheelEngine) after(d Time, fn func()) thandle { return wheelHandle{w.e.After(d, fn)} }
func (w wheelEngine) every(p Time, fn func()) thandle { return wheelHandle{w.e.Every(p, fn)} }
func (w wheelEngine) now() Time                       { return w.e.Now() }
func (w wheelEngine) runUntil(t Time)                 { _ = w.e.RunUntil(t) }
func (w wheelEngine) pending() int                    { return w.e.Pending() }

type wheelHandle struct{ t *Timer }

func (h wheelHandle) stop() bool        { return h.t.Stop() }
func (h wheelHandle) reset(d Time) bool { return h.t.Reset(d) }

// --- reference side: the old global binary heap, verbatim ordering ---

type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	period Time
	state  uint8 // reuses the tm* state constants
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type refEngine struct {
	clock Time
	queue refQueue
	seq   uint64
	live  int
}

func (r *refEngine) push(ev *refEvent, t Time) {
	if t < r.clock {
		t = r.clock
	}
	r.seq++
	ev.at = t
	ev.seq = r.seq
	ev.state = tmWheel
	heap.Push(&r.queue, ev)
	r.live++
}

func (r *refEngine) schedule(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	r.push(&refEvent{fn: fn}, r.clock+d)
}

func (r *refEngine) at(t Time, fn func()) { r.push(&refEvent{fn: fn}, t) }

func (r *refEngine) after(d Time, fn func()) thandle {
	if d < 0 {
		d = 0
	}
	ev := &refEvent{fn: fn}
	r.push(ev, r.clock+d)
	return &refHandle{e: r, ev: ev}
}

func (r *refEngine) every(p Time, fn func()) thandle {
	ev := &refEvent{fn: fn, period: p}
	r.push(ev, r.clock+p)
	return &refHandle{e: r, ev: ev}
}

func (r *refEngine) now() Time    { return r.clock }
func (r *refEngine) pending() int { return r.live }

func (r *refEngine) runUntil(t Time) {
	for {
		for len(r.queue) > 0 && r.queue[0].state == tmDead {
			heap.Pop(&r.queue)
		}
		if len(r.queue) == 0 || r.queue[0].at > t {
			break
		}
		ev := heap.Pop(&r.queue).(*refEvent)
		ev.state = tmRunning
		r.clock = ev.at
		r.live--
		ev.fn()
		if ev.state == tmRunning {
			if ev.period > 0 {
				r.push(ev, r.clock+ev.period)
			} else {
				ev.state = tmFree
			}
		}
	}
	if r.clock < t {
		r.clock = t
	}
}

type refHandle struct {
	e  *refEngine
	ev *refEvent
}

func (h *refHandle) stop() bool {
	switch h.ev.state {
	case tmWheel:
		h.ev.state = tmDead
		h.e.live--
		return true
	case tmRunning:
		h.ev.state = tmDead
		return false
	}
	return false
}

func (h *refHandle) reset(d Time) bool {
	was := h.stop()
	if d < 0 {
		d = 0
	}
	ev := &refEvent{fn: h.ev.fn, period: h.ev.period}
	h.e.push(ev, h.e.clock+d)
	h.ev = ev
	return was
}

// --- the shared randomized program ---

type fireRec struct {
	id int
	at Time
}

const (
	diffMaxEvents = 3000
	diffMaxFires  = 20000
	// The wheel horizon is 64^wheelLevels ticks of 2^tickBits ns = 2^50 ns;
	// running to 2^52 forces overflow promotion for the beyond-horizon
	// delays below.
	diffHorizon = Time(1) << 52
	diffInitial = 100
)

func randDelay(rng *RNG) Time {
	switch rng.Intn(6) {
	case 0:
		return Time(rng.Intn(4)) // same-timestamp ties and sub-tick gaps
	case 1:
		return Time(rng.Intn(wheelSlots << tickBits)) // level 0
	case 2:
		return Time(rng.Intn(1 << 20)) // levels 1-2
	case 3:
		return Time(rng.Int63n(1 << 36)) // mid levels
	case 4:
		return Time(rng.Int63n(1 << 49)) // top level
	default:
		return Time(1)<<50 + Time(rng.Int63n(1<<51)) // beyond horizon: overflow tier
	}
}

// runProgram drives one engine through the seed-determined schedule and
// returns its dispatch trace, final clock, and pending count.
func runProgram(eng tengine, seed uint64) ([]fireRec, Time, int) {
	rng := NewRNG(seed)
	var trace []fireRec
	var handles []thandle
	created := 0

	var makeEvent func() func()
	makeEvent = func() func() {
		id := created
		created++
		return func() {
			trace = append(trace, fireRec{id: id, at: eng.now()})
			if len(trace) >= diffMaxFires {
				// Cut every periodic timer loose so the run terminates.
				for _, h := range handles {
					h.stop()
				}
				handles = handles[:0]
				return
			}
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				op := rng.Intn(10)
				if op <= 7 && created >= diffMaxEvents {
					continue
				}
				switch op {
				case 0, 1, 2:
					eng.schedule(randDelay(rng), makeEvent())
				case 3: // exact same-time tie
					eng.schedule(0, makeEvent())
				case 4: // negative delay: clamps to now
					eng.schedule(-Time(rng.Intn(1000)), makeEvent())
				case 5: // absolute time in the past: clamps to now
					past := eng.now() - Time(rng.Int63n(int64(eng.now())+1))
					eng.at(past, makeEvent())
				case 6:
					handles = append(handles, eng.after(randDelay(rng), makeEvent()))
				case 7:
					period := Time(1 + rng.Intn(200_000))
					handles = append(handles, eng.every(period, makeEvent()))
				case 8: // stop storm
					for j := 0; j < 3 && len(handles) > 0; j++ {
						handles[rng.Intn(len(handles))].stop()
					}
				case 9: // reset storm
					if len(handles) > 0 {
						handles[rng.Intn(len(handles))].reset(randDelay(rng))
					}
				}
			}
		}
	}

	for i := 0; i < diffInitial; i++ {
		eng.schedule(randDelay(rng), makeEvent())
	}
	eng.runUntil(diffHorizon)
	return trace, eng.now(), eng.pending()
}

func TestWheelHeapDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 0xdecafbad, 42424242} {
		wTrace, wNow, wPend := runProgram(wheelEngine{NewEngine()}, seed)
		rTrace, rNow, rPend := runProgram(&refEngine{}, seed)
		min := len(wTrace)
		if len(rTrace) < min {
			min = len(rTrace)
		}
		for i := 0; i < min; i++ {
			if wTrace[i] != rTrace[i] {
				t.Fatalf("seed %d: dispatch %d diverges: wheel fired event %d at %v, heap fired event %d at %v",
					seed, i, wTrace[i].id, wTrace[i].at, rTrace[i].id, rTrace[i].at)
			}
		}
		if len(wTrace) != len(rTrace) {
			t.Fatalf("seed %d: wheel fired %d events, heap fired %d (identical first %d)",
				seed, len(wTrace), len(rTrace), min)
		}
		if wNow != rNow {
			t.Fatalf("seed %d: final clocks diverge: wheel %v, heap %v", seed, wNow, rNow)
		}
		if wPend != rPend {
			t.Fatalf("seed %d: pending counts diverge: wheel %d, heap %d", seed, wPend, rPend)
		}
		if len(wTrace) == 0 {
			t.Fatalf("seed %d: program fired no events", seed)
		}
	}
}

// The same program with profiling armed must produce the identical trace:
// profiling observes without perturbing (DESIGN.md §12), and the wheel
// counters it adds must actually move under a schedule that spans every
// level and the overflow tier.
func TestWheelDifferentialUnderProfiling(t *testing.T) {
	eng := NewEngine()
	eng.EnableProfiling()
	pTrace, pNow, _ := runProgram(wheelEngine{eng}, 7)
	plain, plainNow, _ := runProgram(wheelEngine{NewEngine()}, 7)
	if len(pTrace) != len(plain) || pNow != plainNow {
		t.Fatalf("profiling perturbed the run: %d/%v vs %d/%v", len(pTrace), pNow, len(plain), plainNow)
	}
	prof := eng.Profile()
	if prof.Cascades == 0 {
		t.Fatal("a multi-level schedule should record cascades")
	}
	if prof.OverflowPromotions == 0 {
		t.Fatal("a beyond-horizon schedule should record overflow promotions")
	}
	if prof.Dispatches != prof.Events {
		t.Fatalf("dispatches %d != events %d", prof.Dispatches, prof.Events)
	}
}
