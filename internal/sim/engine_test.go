package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(100, func() {
		e.Schedule(-50, func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestEngineAtInPastClamped(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.Schedule(100, func() {
		e.At(10, func() { at = e.Now() })
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past event ran at %v, want clamped to 100", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(25) ran %d events, want 2", len(ran))
	}
	if e.Now() != 25 {
		t.Fatalf("clock after RunUntil = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("after Run, ran %d events, want 4", len(ran))
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		e.Schedule(10, tick)
	}
	e.Schedule(10, tick)
	e.RunFor(100)
	if n != 10 {
		t.Fatalf("RunFor(100) with period 10 ticked %d times, want 10", n)
	}
	e.RunFor(50)
	if n != 15 {
		t.Fatalf("second RunFor(50) total %d ticks, want 15", n)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 100; i++ {
		e.Schedule(Time(i), func() {
			n++
			if n == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 5 {
		t.Fatalf("ran %d events after Stop, want 5", n)
	}
	// Run resumes after Stop.
	e.Run()
	if n != 100 {
		t.Fatalf("resume ran to %d, want 100", n)
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", e.Processed())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.50us"},
		{2500000, "2.50ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Fatalf("Second.Seconds() = %v", Second.Seconds())
	}
	if Microsecond.Micros() != 1 {
		t.Fatalf("Microsecond.Micros() = %v", Microsecond.Micros())
	}
	if Minute != 60*Second {
		t.Fatal("Minute != 60*Second")
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		var maxd Time
		for _, d := range delays {
			d := Time(d)
			if d > maxd {
				maxd = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == maxd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogEventBudget(t *testing.T) {
	e := NewEngine()
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		e.Schedule(Microsecond, tick) // self-perpetuating: would run forever
	}
	e.Schedule(0, tick)
	e.SetBudget(100, 0)
	if err := e.Run(); err == nil {
		t.Fatal("runaway loop did not trip the event budget")
	}
	if ticks > 100 {
		t.Fatalf("budget of 100 let %d events through", ticks)
	}
	if e.BudgetErr() == nil {
		t.Fatal("tripped state not sticky")
	}
	// Still tripped: further runs fail immediately without progress.
	before := e.Processed()
	if err := e.Run(); err == nil {
		t.Fatal("tripped watchdog allowed another run")
	}
	if e.Processed() != before {
		t.Fatal("tripped watchdog still executed events")
	}
	// Re-arming clears the trip.
	e.SetBudget(0, 0)
	if e.BudgetErr() != nil {
		t.Fatal("SetBudget(0,0) did not clear the trip")
	}
}

func TestWatchdogSimTimeBudget(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(Millisecond, tick) }
	e.Schedule(0, tick)
	e.SetBudget(0, 10*Millisecond)
	err := e.Run()
	if err == nil {
		t.Fatal("unbounded clock advance did not trip the sim-time budget")
	}
	if e.Now() > 10*Millisecond {
		t.Fatalf("clock ran to %v past the 10ms deadline", e.Now())
	}
}

func TestWatchdogBudgetIsAbsolute(t *testing.T) {
	// The limits are relative to the SetBudget call, not simulation zero.
	e := NewEngine()
	for i := 0; i < 50; i++ {
		e.Schedule(Time(i)*Microsecond, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.SetBudget(50, 0) // 50 more, on top of the 50 already processed
	for i := 0; i < 49; i++ {
		e.Schedule(Time(i)*Microsecond, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("49 events within a fresh 50-event budget tripped: %v", err)
	}
}

func TestWatchdogDisarmedByDefault(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10000; i++ {
		e.Schedule(Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("unarmed watchdog returned %v", err)
	}
}

func TestWatchdogRunForHonorsDeadline(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(Millisecond, tick) }
	e.Schedule(0, tick)
	e.SetBudget(0, 5*Millisecond)
	if err := e.RunFor(3 * Millisecond); err != nil {
		t.Fatalf("run within budget tripped: %v", err)
	}
	if err := e.RunFor(10 * Millisecond); err == nil {
		t.Fatal("RunFor past the deadline did not trip")
	}
}

func TestProfilingDisabledByDefault(t *testing.T) {
	e := NewEngine()
	if e.ProfilingEnabled() {
		t.Fatal("fresh engine reports profiling enabled")
	}
	e.Schedule(0, func() {})
	e.Run()
	if p := e.Profile(); p != (EngineProfile{}) {
		t.Fatalf("disabled profile not zero: %+v", p)
	}
}

func TestProfilingCounters(t *testing.T) {
	e := NewEngine()
	e.EnableProfiling()
	// Three leaf events plus one that schedules two more: 6 inserts, 6
	// dispatches.
	for i := 0; i < 3; i++ {
		e.Schedule(Time(i)*Microsecond, func() {})
	}
	e.Schedule(5*Microsecond, func() {
		e.Schedule(Microsecond, func() {})
		e.Schedule(2*Microsecond, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	p := e.Profile()
	if p.Events != 6 || p.Inserts != 6 || p.Dispatches != 6 {
		t.Fatalf("counters: %+v, want 6 events/inserts/dispatches", p)
	}
	// All four initial events were pending at once before any ran.
	if p.MaxDepth != 4 {
		t.Fatalf("MaxDepth = %d, want 4", p.MaxDepth)
	}
}

func TestProfilingReenableResets(t *testing.T) {
	e := NewEngine()
	e.EnableProfiling()
	e.Schedule(0, func() {})
	e.Run()
	e.EnableProfiling()
	if p := e.Profile(); p.Events != 0 || p.Inserts != 0 {
		t.Fatalf("re-enable did not reset: %+v", p)
	}
}

// Regression for the RunUntil exit that loads the dispatch buffer and
// finds nothing due: t falls inside the 256 ns tick of the next event but
// before it (or ticks before it), so popIfBefore may extract that tick
// and return nil. Inserts into the loaded tick and just after the clock
// must still dispatch in (time, seq) order, exactly as the reference heap
// orders them.
func TestRunUntilBeforeNextEventThenInsert(t *testing.T) {
	for _, tc := range []struct {
		name  string
		until Time
	}{
		{"inside-tick", 900}, // the next event (1000) is in tick 768–1023
		{"ticks-before", 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(eng tengine) ([]fireRec, Time) {
				var fires []fireRec
				rec := func(id int) func() {
					return func() { fires = append(fires, fireRec{id: id, at: eng.now()}) }
				}
				eng.at(1000, rec(0))
				eng.at(1020, rec(1))
				eng.at(5000, rec(2))
				eng.runUntil(tc.until)
				if len(fires) != 0 || eng.now() != tc.until {
					t.Fatalf("RunUntil(%v): fires %v, clock %v", tc.until, fires, eng.now())
				}
				eng.at(950, rec(3))          // into the loaded tick, before its entries
				eng.at(eng.now()+1, rec(4))  // just after the clock
				eng.schedule(0, rec(5))      // at the clock
				eng.at(1000, rec(6))         // tie with event 0, later seq
				eng.at(eng.now()-50, rec(7)) // in the past: clamps to the clock
				eng.runUntil(10_000)
				return fires, eng.now()
			}
			got, gotNow := run(wheelEngine{NewEngine()})
			want, wantNow := run(&refEngine{})
			if len(got) != len(want) || gotNow != wantNow {
				t.Fatalf("wheel fired %v (clock %v), reference %v (clock %v)", got, gotNow, want, wantNow)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("wheel fired %v, reference %v", got, want)
				}
			}
		})
	}
}

// Regression for the watchdog exit: an event budget trips mid-window, the
// head timer is stopped, and events are inserted just after the clock
// before the budget is cleared and the window resumed. Had the tripping
// step loaded the next tick into the dispatch buffer, the cursor would sit
// ahead of the clock and the inserts would dispatch after later events.
func TestRunUntilBudgetTripStopHeadThenInsert(t *testing.T) {
	e := NewEngine()
	var fires []fireRec
	rec := func(id int) func() {
		return func() { fires = append(fires, fireRec{id: id, at: e.Now()}) }
	}
	e.At(1000, rec(0))
	head := e.AtTimer(2000, rec(1))
	e.At(3000, rec(2))
	e.SetBudget(1, 0)
	if err := e.RunUntil(10_000); err == nil {
		t.Fatal("a one-event budget did not trip on the second event")
	}
	if e.Now() != 1000 {
		t.Fatalf("clock at %v after the trip, want 1000 (last dispatched event)", e.Now())
	}
	if !head.Stop() {
		t.Fatal("head timer was not pending after the trip")
	}
	e.At(1001, rec(3))
	e.Schedule(1, rec(4))
	e.At(1500, rec(5))
	if e.Now() != 1000 {
		t.Fatalf("clock moved to %v between the trip and the resume", e.Now())
	}
	e.SetBudget(0, 0)
	if err := e.RunUntil(10_000); err != nil {
		t.Fatal(err)
	}
	want := []fireRec{{0, 1000}, {3, 1001}, {4, 1001}, {5, 1500}, {2, 3000}}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
	if e.Now() != 10_000 {
		t.Fatalf("clock at %v, want 10000", e.Now())
	}
}
