package sim

import (
	"runtime"
	"testing"
)

// BenchmarkEngineSchedule measures raw event throughput: schedule + run
// one event per iteration on a warm heap.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(Time(i%100), func() {})
		if eng.Pending() > 1024 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkEngineChain measures the self-rescheduling pattern every
// device model uses.
func BenchmarkEngineChain(b *testing.B) {
	eng := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(10, tick)
		}
	}
	eng.Schedule(10, tick)
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEngineRunForSparse drives the engine the way a fleet-scale run
// does: 12k pending self-rescheduling timers, each 0.1–5 ms ahead, run in
// RunFor(10ms) windows, so most steps find the dispatch buffer empty and
// the next event parked on a crowded higher-level slot. One op is one
// window; ns/event and allocs/event are per dispatched event.
// BenchmarkEngineHotPath (repository root) dispatches through Step alone
// and never pays RunUntil's per-step cost.
func BenchmarkEngineRunForSparse(b *testing.B) {
	const nTimers = 12_000
	eng := NewEngine()
	rng := NewRNG(1)
	delay := func() Time { return 100*Microsecond + Time(rng.Int63n(int64(4900*Microsecond))) }
	for i := 0; i < nTimers; i++ {
		var tick func()
		tick = func() { eng.Schedule(delay(), tick) }
		eng.Schedule(delay(), tick)
	}
	// Warm-up: the timer pool and dispatch buffer reach steady state.
	if err := eng.RunFor(20 * Millisecond); err != nil {
		b.Fatal(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ev0 := eng.Processed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunFor(10 * Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	events := float64(eng.Processed() - ev0)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/events, "allocs/event")
}

// BenchmarkRNG measures the generator used on every stochastic draw.
func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
