package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the command against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsMatchSpec keeps BENCHMARK.json's workload list and reasons
// in step with the workloads the command knows.
func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(scenarios))
	}
	for i, w := range spec.Workloads {
		if s := scenarios[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command has %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
	}
}

// TestSmoke runs every workload at a tiny simulated length, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and that the correctness gates pass.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: w.Name,
				seed:     defaultSeed,
				trace:    traced,
				length:   30 * sim.Millisecond,
				spansDir: t.TempDir(),
			}
			res, problems, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, p := range problems {
				t.Errorf("%s traced=%v: %s", w.Name, traced, p)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if traced {
				path := filepath.Join(cfg.spansDir, w.Name+"-seed1.jsonl")
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no spans written to %s (%v)", w.Name, path, err)
				}
			}
		}
	}
}

// TestChargeTo pins the charging rule: the innermost frame under
// repro/internal/ names the module, nested packages count as their
// top-level module, and stacks without one go to runtime.
func TestChargeTo(t *testing.T) {
	p := &profile{
		strings: []string{"", "runtime.mallocgc", "repro/internal/sim.(*wheel).pruneScan",
			"repro/internal/mgmt/storeindex.(*Index).Push", "main.main", "repro/internal/core.(*System).observeEpoch"},
		functions: map[uint64]int64{1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
		// Location 10 holds an inlined frame: storeindex inlined into core.
		locations: map[uint64][]uint64{10: {3, 5}, 11: {1}, 12: {2}, 13: {4}},
	}
	for _, c := range []struct {
		stack []uint64
		want  string
	}{
		{[]uint64{11, 12, 13}, "sim"},
		{[]uint64{11, 10, 12}, "mgmt"},
		{[]uint64{11, 13}, "runtime"},
	} {
		if got := p.chargeTo(c.stack); got != c.want {
			t.Errorf("chargeTo(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
