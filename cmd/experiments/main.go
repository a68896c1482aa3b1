// Command experiments regenerates the paper's tables and figures on the
// simulation substrate and prints the rows/series the paper reports.
//
// Usage:
//
//	experiments [-exp all | comma list of table1|table2|table3|table4|
//	             table5|fig4|fig5|fig7|fig9|fig12|fig13|fig14|fig15|
//	             fig16|fig17|tau|placement|dax|faults|ablations]
//	            [-scale quick|full] [-seed N] [-jobs N]
//	            [-policy SPEC] [-exp chaos -scenarios N]
//	            [-trace-out FILE] [-metrics-out FILE] [-sample-ms N]
//	            [-tail-out FILE] [-tail-ms N]
//
// -policy SPEC runs a policy study instead of the matrix: the spec (a
// canonical scheme name or a policy composition like
// "est=predicted,exec=redirect,gate=copy" — see internal/mgmt/policy) is
// compared against the canonical lineup on the Fig. 12 single-node
// interference mix. The matrix experiments and their outputs are
// untouched.
//
// -exp chaos runs the crash/invariant harness instead of the matrix:
// -scenarios randomized fault+crash scenarios (derived from -seed)
// execute with the structural invariant checker armed, and the process
// exits nonzero if any scenario violates an invariant — the report then
// carries the offending scenario's seed, spec, and a one-line
// reproduction command. -scale full doubles the per-scenario run time.
//
// -jobs N shards independent experiment cells (and the sweep points
// inside them) across min(N, cells) worker goroutines; 0 means
// min(GOMAXPROCS, cells). The report on stdout is byte-identical for
// every -jobs value: results are collected by cell index, never by
// completion order, and wall-clock timings go to stderr. See DESIGN.md
// §9 for the determinism contract.
//
// The telemetry flags instrument every system the selected experiments
// build: spans from all of them land in one trace, sampled metrics in
// one CSV, and (with -tail-out) windowed per-store/per-VMDK tail
// latencies in another CSV, with tracks and keys namespaced "sys<k>.…"
// by the experiment matrix's canonical order — stable across -jobs
// settings.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run: all, or a comma list of table1..table5, fig4..fig17, tau, faults, ...")
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	seed := flag.Uint64("seed", 99, "model-training seed")
	jobs := flag.Int("jobs", 0, "parallel experiment jobs (0 = GOMAXPROCS, 1 = sequential)")
	policySpec := flag.String("policy", "", "run a policy study for this spec instead of the matrix (scheme name or policy composition)")
	scenarios := flag.Int("scenarios", 64, "scenario count for -exp chaos")
	traceOut := flag.String("trace-out", "", "write spans from every built system (Chrome trace JSON; .jsonl = line-delimited)")
	metricsOut := flag.String("metrics-out", "", "write sampled metrics from every built system as CSV")
	sampleMS := flag.Int("sample-ms", 25, "metric sampling interval in simulated milliseconds")
	tailOut := flag.String("tail-out", "", "write windowed per-store/per-VMDK tail latency from every built system as CSV")
	tailMS := flag.Int("tail-ms", 10, "tail window length in simulated milliseconds")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick()
	case "full":
		scale = experiments.Full()
	default:
		log.Fatalf("unknown scale %q (quick|full)", *scaleName)
	}
	if *sampleMS <= 0 {
		*sampleMS = 25
	}
	if *tailMS <= 0 {
		*tailMS = 10
	}
	tailEvery := sim.Time(0)
	if *tailOut != "" {
		tailEvery = sim.Time(*tailMS) * sim.Millisecond
	}
	scope := core.NewTelemetryScope(*traceOut != "", *metricsOut != "",
		sim.Time(*sampleMS)*sim.Millisecond, tailEvery)
	scale.Scope = scope
	scale.Jobs = *jobs

	if strings.ToLower(*exp) == "chaos" {
		// The chaos harness is dispatched outside the matrix (like -policy):
		// its scenarios arm fault injection and invariant checking, which
		// must never perturb the matrix experiments' golden outputs.
		copts := chaos.Options{Seed: *seed, Scenarios: *scenarios, Jobs: *jobs}
		if *scaleName == "full" {
			copts.RunTime = 400 * sim.Millisecond
			copts.FootprintDivisor = 1024
		}
		result, err := chaos.Run(copts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("===== chaos =====\n%s\n", result)
		if err := result.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *policySpec != "" {
		fmt.Fprintln(os.Stderr, "training NVDIMM performance model...")
		model, err := core.TrainScaledNVDIMMModel(*seed)
		if err != nil {
			log.Fatal(err)
		}
		study, err := experiments.PolicyStudy(*policySpec, scale, model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("===== policy =====\n%s\n", study)
		exportTelemetry(scope, *traceOut, *metricsOut, *tailOut)
		return
	}

	var names []string
	if want := strings.ToLower(*exp); want != "all" {
		names = strings.Split(want, ",")
	}
	results, err := experiments.RunMatrix(experiments.MatrixOptions{
		Names: names,
		Scale: scale,
		Seed:  *seed,
		OnModelTrain: func() {
			fmt.Fprintln(os.Stderr, "training NVDIMM performance model...")
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, r.Err)
			continue
		}
		fmt.Printf("===== %s =====\n%s\n", r.Name, r.Text)
		fmt.Fprintf(os.Stderr, "%s finished in %.1fs\n", r.Name, r.Elapsed.Seconds())
	}

	exportTelemetry(scope, *traceOut, *metricsOut, *tailOut)
	if failed > 0 {
		os.Exit(1)
	}
}

// exportTelemetry merges and writes the scope's trace/metric/tail
// artifacts (no-op when telemetry was not requested).
func exportTelemetry(scope *core.TelemetryScope, traceOut, metricsOut, tailOut string) {
	if !scope.Enabled() {
		return
	}
	tel := scope.Merge()
	if traceOut != "" {
		if err := writeTrace(traceOut, tel.Tracer); err != nil {
			log.Fatalf("trace export: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", tel.Tracer.NumEvents(), traceOut)
	}
	if metricsOut != "" {
		if err := writeCSV(metricsOut, tel.Series); err != nil {
			log.Fatalf("metrics export: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d metric samples to %s\n", tel.Series.Len(), metricsOut)
	}
	if tailOut != "" {
		f, err := os.Create(tailOut)
		if err != nil {
			log.Fatalf("tail export: %v", err)
		}
		err = tel.Tail.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("tail export: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d tail windows to %s\n", tel.Tail.Len(), tailOut)
	}
}

// writeTrace exports recorded spans: Chrome trace JSON by default, JSONL
// when the path ends in .jsonl.
func writeTrace(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = tr.WriteJSONL(f)
	} else {
		err = tr.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeCSV exports the sampled metric time series.
func writeCSV(path string, s *telemetry.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = s.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
