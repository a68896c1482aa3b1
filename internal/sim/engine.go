// Package sim provides the discrete-event simulation engine that every
// device and workload model in this repository is built on.
//
// The engine maintains a virtual clock with nanosecond resolution and an
// event queue ordered by (time, insertion sequence). All models schedule
// callbacks on a single Engine; execution is strictly deterministic for a
// given seed and schedule order, which makes every experiment in the paper
// reproduction replayable bit-for-bit.
//
// The queue is a hierarchical timer wheel with an overflow tier and pooled
// event objects (wheel.go), so the steady-state hot path allocates nothing
// and insert/cancel are O(1). On top of the raw Schedule/At callbacks,
// timer.go provides first-class cancellable and periodic timers
// (After/AtTimer/Every/EveryAt returning a Timer handle) that replace the
// hand-rolled closure-captured cancellation flags the models used to carry.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Common durations expressed in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	wheel   wheel
	seq     uint64
	stopped bool
	// processed counts executed events, exposed for instrumentation.
	processed uint64

	// Watchdog budget (SetBudget): a run that executes more events or
	// advances the clock further than budgeted returns an error instead of
	// spinning forever. Zero values disarm each limit.
	budgetEvents   uint64 // absolute processed-count limit (0 = off)
	budgetDeadline Time   // absolute sim-time limit (0 = off)
	budgetErr      error

	// prof, when non-nil, accumulates the self-profiling counters of
	// EnableProfiling. The hot paths pay exactly one nil check when
	// profiling is off (the cheap-when-disabled contract, DESIGN.md §12).
	prof *EngineProfile
}

// EngineProfile is a snapshot of the engine's self-profiling counters:
// the raw cost drivers of the event hot path, for BenchmarkEngineHotPath
// and BENCH_engine.json. All counts are deterministic for a given
// schedule — profiling observes the run without perturbing it.
type EngineProfile struct {
	// Events is the number of events dispatched since profiling was enabled.
	Events uint64
	// Inserts counts event-queue insertions (one per At/Schedule call or
	// timer arm, including periodic re-arms).
	Inserts uint64
	// Dispatches counts event-queue removals (one per dispatched event).
	Dispatches uint64
	// MaxDepth is the high-water mark of simultaneously pending events —
	// the timer depth the queue actually had to organize.
	MaxDepth int
	// Cascades counts live entries redistributed from a higher wheel level
	// to a lower one while the dispatch cursor advanced (the deferred part
	// of the wheel's O(1) insert).
	Cascades uint64
	// OverflowPromotions counts entries that entered beyond the wheel
	// horizon and were later promoted from the overflow tier into the wheel.
	OverflowPromotions uint64
}

// EnableProfiling arms the self-profiling counters. Counters start from
// zero at the call; re-enabling resets them. Profiling is off by default
// and costs the hot path a single pointer nil check when off.
func (e *Engine) EnableProfiling() {
	e.prof = &EngineProfile{}
	e.wheel.cascades = 0
	e.wheel.promotions = 0
}

// ProfilingEnabled reports whether self-profiling counters are armed.
func (e *Engine) ProfilingEnabled() bool { return e.prof != nil }

// Profile returns a snapshot of the self-profiling counters (the zero
// profile when profiling was never enabled).
func (e *Engine) Profile() EngineProfile {
	if e.prof == nil {
		return EngineProfile{}
	}
	p := *e.prof
	p.Cascades = e.wheel.cascades
	p.OverflowPromotions = e.wheel.promotions
	return p
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	// Pre-size the dispatch buffer so same-tick batches don't grow the
	// slice mid-run: the hot path stays allocation-free even when a
	// larger coincidence batch shows up long after start-up.
	e.wheel.buf = make([]*timer, 0, 128)
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live events waiting in the queue
// (cancelled timers stop counting the moment Stop succeeds).
func (e *Engine) Pending() int { return e.wheel.pending }

// Schedule runs fn after delay simulated nanoseconds. A negative delay is
// treated as zero (run at the current time, after already-queued events at
// this time).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t. Scheduling in the past is an error in the
// model; it is clamped to now so simulations degrade loudly in latency
// rather than corrupting the clock.
func (e *Engine) At(t Time, fn func()) {
	tm := e.wheel.get()
	tm.fn = fn
	e.arm(tm, t)
}

// arm assigns the next insertion sequence number to tm and links it into
// the queue at absolute time t (past times clamp to now). Shared by At and
// the Timer API so ties always break in global scheduling order.
func (e *Engine) arm(tm *timer, t Time) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	tm.at = t
	tm.seq = e.seq
	e.wheel.insert(tm)
	if e.prof != nil {
		e.prof.Inserts++
		if d := e.wheel.pending; d > e.prof.MaxDepth {
			e.prof.MaxDepth = d
		}
	}
}

// Step executes the single earliest event. It reports false when the queue
// is empty.
func (e *Engine) Step() bool {
	tm := e.wheel.popMin()
	if tm == nil {
		return false
	}
	e.dispatch(tm)
	return true
}

// dispatch runs one entry popped from the wheel: it advances the clock to
// the entry's time, runs the callback, then re-arms or recycles the entry.
// Step and RunUntil share it so both dispatch identically.
func (e *Engine) dispatch(tm *timer) {
	if e.prof != nil {
		e.prof.Dispatches++
		e.prof.Events++
	}
	tm.state = tmRunning
	e.now = tm.at
	e.processed++
	tm.fn()
	// The callback may have cancelled or re-armed its own timer (state no
	// longer tmRunning); only an undisturbed periodic timer re-arms here,
	// consuming a fresh sequence number exactly like a callback that
	// re-schedules itself as its last statement.
	if tm.state == tmRunning {
		if tm.period > 0 {
			e.arm(tm, e.now+tm.period)
		} else {
			e.wheel.recycle(tm)
		}
	} else if tm.state == tmDead {
		e.wheel.recycle(tm)
	}
}

// SetBudget arms the watchdog: subsequent Run/RunUntil/RunFor calls return
// an error once more than maxEvents further events execute, or once the
// next event would run after now+maxSimTime. Either limit can be 0 to
// disarm it; SetBudget(0, 0) disarms the watchdog entirely and clears any
// tripped state. The budget exists so a lost completion callback under
// fault injection — which keeps closed-loop workloads refilling forever —
// fails a run loudly instead of spinning without end.
func (e *Engine) SetBudget(maxEvents uint64, maxSimTime Time) {
	e.budgetErr = nil
	if maxEvents > 0 {
		e.budgetEvents = e.processed + maxEvents
	} else {
		e.budgetEvents = 0
	}
	if maxSimTime > 0 {
		e.budgetDeadline = e.now + maxSimTime
	} else {
		e.budgetDeadline = 0
	}
}

// BudgetErr returns the watchdog error if a budget has been exceeded, else
// nil. Once tripped the error persists until SetBudget is called again.
func (e *Engine) BudgetErr() error { return e.budgetErr }

// checkBudget trips the watchdog if a limit has been exceeded.
func (e *Engine) checkBudget() error {
	if e.budgetErr != nil {
		return e.budgetErr
	}
	if e.budgetEvents > 0 && e.processed >= e.budgetEvents {
		e.budgetErr = fmt.Errorf("sim: watchdog: event budget exhausted (%d events executed, clock at %v)", e.processed, e.now)
	} else if e.budgetDeadline > 0 {
		if at, ok := e.wheel.peek(); ok && at > e.budgetDeadline {
			e.budgetErr = fmt.Errorf("sim: watchdog: sim-time budget exhausted (next event at %v, deadline %v)", at, e.budgetDeadline)
		}
	}
	return e.budgetErr
}

// Run executes events until the queue drains or Stop is called. It returns
// a non-nil error only when a SetBudget watchdog limit is exceeded.
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped {
		if err := e.checkBudget(); err != nil {
			return err
		}
		if !e.Step() {
			break
		}
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (if the clock has not already passed it). A run halted by Stop
// leaves the clock at the last dispatched event instead of advancing it to
// t: the simulation was interrupted mid-window, and jumping the clock
// forward would silently skip the rest of the window. It returns a non-nil
// error only when a SetBudget watchdog limit is exceeded (that exit also
// leaves the clock where the last event put it).
//
// Each step pops the next due event with wheel.popIfBefore, which
// restructures the wheel only as far as t. A step on which the watchdog
// can trip instead peeks first: popIfBefore may load the dispatch buffer
// and move the cursor to the next event's tick, and returning the budget
// error after that would leave the cursor ahead of the clock (DESIGN.md
// §15, "RunUntil without peek").
func (e *Engine) RunUntil(t Time) error {
	e.stopped = false
	for !e.stopped {
		var tm *timer
		if e.budgetErr != nil || e.budgetDeadline > 0 ||
			(e.budgetEvents > 0 && e.processed >= e.budgetEvents) {
			at, ok := e.wheel.peek()
			if !ok || at > t {
				break
			}
			if err := e.checkBudget(); err != nil {
				return err
			}
			tm = e.wheel.popMin()
		} else if tm = e.wheel.popIfBefore(t); tm == nil {
			break
		}
		e.dispatch(tm)
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
	return nil
}

// RunFor executes events for d simulated nanoseconds from the current time.
func (e *Engine) RunFor(d Time) error { return e.RunUntil(e.now + d) }

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }
