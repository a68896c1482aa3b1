package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/memsched"
	"repro/internal/mgmt"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// scenario is one named benchmark workload: the core.Options it
// generates from a seed, and the simulated length of one measured run.
// The run is driven one management window at a time.
type scenario struct {
	name string
	// why is the one-line reason the workload is in the benchmark.
	why string
	// length is the simulated time of one measured run (the drain that
	// follows is timed too, but not counted in length).
	length sim.Time
	// variants is how many inputs (simulation seeds) an end-to-end run
	// cycles through, so one run samples several inputs of its seed
	// rather than one; the count is set so every input runs at least
	// once within the time budget.
	variants int
	// options builds the program's inputs from the workload seed. It
	// returns fresh telemetry sinks on every call.
	options func(seed uint64) core.Options
}

// scenarios lists the workloads in the order the doc describes them.
var scenarios = []scenario{
	{
		name:     "corunner",
		why:      "canonical hsmsim run: the 429.mcf DRAM co-runner loop (memgen, dram, bus, sim) dominates host time and allocations",
		length:   500 * sim.Millisecond,
		variants: 12,
		options:  corunnerOptions,
	},
	{
		name:     "hotset",
		why:      "no co-runner, Zipf 0.99 skew, no HDD placement: host time sits on the storage path (NVDIMM cache hits, memsched, FTL GC, SSD)",
		length:   6 * sim.Second,
		variants: 12,
		options:  hotsetOptions,
	},
	{
		name:     "fleet",
		why:      "8 nodes, 64 VMDKs, full scheme: continuous migrations, cache miss path, long epochs, the only telemetry sinks",
		length:   200 * sim.Millisecond,
		variants: 12,
		options:  fleetOptions,
	},
}

// scenarioByName returns the named workload.
func scenarioByName(name string) (scenario, error) {
	for _, s := range scenarios {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, 0, len(scenarios))
	for _, s := range scenarios {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return scenario{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// hsmsimMgmt is the management configuration cmd/hsmsim runs with by
// default: τ 0.5, 10 ms windows, at least 3 requests per window.
func hsmsimMgmt() mgmt.Config {
	cfg := mgmt.DefaultConfig()
	cfg.Tau = 0.5
	cfg.Window = 10 * sim.Millisecond
	cfg.MinWindowRequests = 3
	return cfg
}

// corunnerOptions is the canonical hsmsim scenario: one node, BCA+Lazy,
// all eight Table 5 applications, the 429.mcf co-runner at scale 1.
func corunnerOptions(seed uint64) core.Options {
	return core.Options{
		Nodes:       1,
		Scheme:      mgmt.BCALazy(),
		Mgmt:        hsmsimMgmt(),
		MemProfile:  "429.mcf",
		MemScale:    1,
		Seed:        seed,
		SchedPolicy: memsched.Baseline(),
	}
}

// hotsetOptions is the same node and applications with no co-runner and
// a Zipf-like 0.99 hot spot on every application's random accesses. No
// VMDK is placed on the HDD: with it, whether a hot VMDK starts there
// splits the inputs into two groups whose simulated work differs by a
// quarter, and the run would measure which group the seed drew.
func hotsetOptions(seed uint64) core.Options {
	o := corunnerOptions(seed)
	o.MemProfile = ""
	o.WorkloadSkew = 0.99
	o.NoHDDPlacement = true
	return o
}

// fleetOptions is eight nodes carrying the eight applications eight
// times over, under the full scheme with cache bypassing, the combined
// scheduling policy, the Fig. 12/13 management configuration and the
// telemetry registry sampler and tail tracker attached.
func fleetOptions(seed uint64) core.Options {
	var apps []string
	for i := 0; i < 8; i++ {
		for _, p := range workload.BigDataApps() {
			apps = append(apps, p.Name)
		}
	}
	cfg := mgmt.DefaultConfig()
	cfg.Window = 10 * sim.Millisecond
	cfg.MinWindowRequests = 3
	cfg.MinResidenceWindows = 4
	cfg.DebounceWindows = 2
	cfg.MaxConcurrentMigrations = 2
	cfg.CopyDepth = 8
	return core.Options{
		Nodes:               8,
		Scheme:              mgmt.Full(),
		Mgmt:                cfg,
		Apps:                apps,
		Seed:                seed,
		SchedPolicy:         memsched.Combined(2 * sim.Millisecond),
		BypassMigratedReads: true,
		NoHDDPlacement:      true,
		FootprintDivisor:    1024,
		Telemetry: &core.Telemetry{
			Registry:    telemetry.NewRegistry(),
			SampleEvery: 25 * sim.Millisecond,
			Tail:        telemetry.NewTailSeries(),
			TailEvery:   10 * sim.Millisecond,
		},
	}
}
