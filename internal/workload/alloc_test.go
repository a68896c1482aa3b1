package workload

import (
	"runtime"
	"testing"

	"repro/internal/bus"
	"repro/internal/dram"
	"repro/internal/sim"
)

// newCoRunnerLoop builds the DRAM co-runner loop a node runs: one engine,
// one channel, one DIMM and a 429.mcf generator issuing 64-cacheline
// bursts, warmed up for 10 ms so every pool has reached its working size.
func newCoRunnerLoop(tb testing.TB) (*sim.Engine, *MemGen) {
	tb.Helper()
	eng := sim.NewEngine()
	d := dram.New(eng, bus.NewChannel(eng, 0), dram.DefaultConfig())
	mcf, ok := SPECProfile("429.mcf")
	if !ok {
		tb.Fatal("429.mcf profile missing")
	}
	g := NewMemGen(eng, sim.NewRNG(1), d, mcf)
	g.Aggregation = 64
	g.Start()
	eng.RunFor(10 * sim.Millisecond)
	return eng, g
}

// TestCoRunnerLoopZeroAlloc gates the steady-state co-runner loop
// (MemGen tick, DIMM burst, channel grant and release) at exactly zero
// heap allocations per simulated millisecond.
func TestCoRunnerLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; run without -race")
	}
	eng, g := newCoRunnerLoop(t)
	before := g.Issued()
	allocs := testing.AllocsPerRun(20, func() { eng.RunFor(sim.Millisecond) })
	if g.Issued() == before {
		t.Fatal("co-runner issued no bursts")
	}
	if allocs != 0 {
		t.Fatalf("co-runner loop allocates %v times per simulated ms, want 0", allocs)
	}
}

// BenchmarkCoRunnerLoop reports the host cost of one co-runner burst.
// One op is one simulated millisecond; ns/burst and allocs/burst divide
// by the bursts the generator issued.
func BenchmarkCoRunnerLoop(b *testing.B) {
	eng, g := newCoRunnerLoop(b)
	before := g.Issued()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(sim.Millisecond)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	bursts := float64(g.Issued()-before) / float64(g.Aggregation)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/bursts, "ns/burst")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/bursts, "allocs/burst")
}
