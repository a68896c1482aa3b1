package mgmt

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestDecisionLogDisabledByDefault(t *testing.T) {
	var l DecisionLog
	l.add(Decision{Kind: DecisionMigrate})
	if l.Enabled() || len(l.Entries()) != 0 {
		t.Fatal("disabled log recorded entries")
	}
}

func TestDecisionLogRing(t *testing.T) {
	var l DecisionLog
	l.SetCapacity(3)
	for i := 0; i < 5; i++ {
		l.add(Decision{At: sim.Time(i), Kind: DecisionMigrate, VMDK: i})
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("entries = %d, want 3", len(got))
	}
	// Oldest-first: entries 2, 3, 4 survive.
	for i, d := range got {
		if d.VMDK != i+2 {
			t.Fatalf("ring order wrong: %v", got)
		}
	}
	l.SetCapacity(0)
	if l.Enabled() {
		t.Fatal("SetCapacity(0) did not disable")
	}
}

func TestDecisionKindString(t *testing.T) {
	cases := map[DecisionKind]string{
		DecisionEpoch:    "epoch",
		DecisionMigrate:  "migrate",
		DecisionSkip:     "skip",
		DecisionComplete: "complete",
		DecisionPlace:    "place",
		DecisionSLO:      "slo",
		DecisionKind(99): "decision(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{At: 1000, Kind: DecisionMigrate, VMDK: 3, Src: "a", Dst: "b", Detail: "why"}
	s := d.String()
	for _, want := range []string{"migrate", "vmdk3", "a→b", "why"} {
		if !strings.Contains(s, want) {
			t.Fatalf("decision render missing %q: %s", want, s)
		}
	}
	// Epoch-style entries omit the VMDK and location.
	e := Decision{Kind: DecisionEpoch, VMDK: -1}
	if strings.Contains(e.String(), "vmdk") {
		t.Fatal("epoch entry should not name a vmdk")
	}
}

func TestManagerLogsMigrations(t *testing.T) {
	n := newNode(t)
	v, _ := n.dss[2].CreateVMDK(1, 8<<20)
	mgr := NewManager(n.eng, quickCfg(), BASIL(), n.dss)
	mgr.Log().SetCapacity(64)
	p := workload.Profile{Name: "w", WriteRatio: 0.3, ReadRand: 0.8, WriteRand: 0.8,
		IOSize: 4096, OIO: 4, Footprint: 8 << 20}
	r := workload.NewRunner(n.eng, sim.NewRNG(1), p, v, 0)
	r.Start()
	mgr.Start()
	n.eng.RunFor(500 * sim.Millisecond)
	r.Stop()
	mgr.Stop()
	n.eng.Run()
	if mgr.Stats().MigrationsStarted == 0 {
		t.Skip("no migration at this scale")
	}
	var sawMigrate bool
	for _, d := range mgr.Log().Entries() {
		if d.Kind == DecisionMigrate {
			sawMigrate = true
			if d.Src == "" || d.Dst == "" {
				t.Fatal("migrate entry missing locations")
			}
		}
	}
	if !sawMigrate {
		t.Fatalf("log has no migrate entry:\n%s", mgr.Log())
	}
}

func TestManagerLogsPlacement(t *testing.T) {
	n := newNode(t)
	mgr := NewManager(n.eng, quickCfg(), BASIL(), n.dss)
	mgr.Log().SetCapacity(8)
	if _, err := mgr.PlaceVMDK(8<<20, trace.WC{OIOs: 2, IOSize: 4096}); err != nil {
		t.Fatal(err)
	}
	entries := mgr.Log().Entries()
	if len(entries) != 1 || entries[0].Kind != DecisionPlace {
		t.Fatalf("log = %v", entries)
	}
}

func TestDecisionLogDropCounting(t *testing.T) {
	var l DecisionLog
	l.SetCapacity(3)
	for i := 0; i < 3; i++ {
		l.add(Decision{VMDK: i})
	}
	if l.Len() != 3 || l.Cap() != 3 || l.Dropped() != 0 {
		t.Fatalf("len=%d cap=%d dropped=%d, want 3/3/0", l.Len(), l.Cap(), l.Dropped())
	}
	for i := 3; i < 8; i++ {
		l.add(Decision{VMDK: i})
	}
	if l.Len() != 3 {
		t.Errorf("len = %d, want 3 (ring stays full)", l.Len())
	}
	if l.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5", l.Dropped())
	}
	// Re-sizing resets the drop counter.
	l.SetCapacity(2)
	if l.Dropped() != 0 || l.Len() != 0 {
		t.Errorf("after SetCapacity: dropped=%d len=%d, want 0/0", l.Dropped(), l.Len())
	}
}

func TestDecisionLogLenBeforeFull(t *testing.T) {
	var l DecisionLog
	l.SetCapacity(5)
	l.add(Decision{})
	l.add(Decision{})
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", l.Dropped())
	}
}

func TestManagerEnablesLogFromConfig(t *testing.T) {
	if DefaultConfig().DecisionLogCap != 1024 {
		t.Fatalf("DefaultConfig().DecisionLogCap = %d, want 1024", DefaultConfig().DecisionLogCap)
	}
	n := newNode(t)
	mgr := NewManager(n.eng, DefaultConfig(), BASIL(), n.dss)
	if !mgr.Log().Enabled() || mgr.Log().Cap() != 1024 {
		t.Fatalf("log enabled=%v cap=%d, want true/1024", mgr.Log().Enabled(), mgr.Log().Cap())
	}

	cfg := DefaultConfig()
	cfg.DecisionLogCap = 0
	mgr2 := NewManager(n.eng, cfg, BASIL(), n.dss)
	if mgr2.Log().Enabled() {
		t.Fatal("DecisionLogCap=0 should leave the log disabled")
	}
}

// TestDecisionStringStagePrefix pins how every kind the manager logs
// renders: decisions carry an observe/, plan/ or execute/ prefix by
// kind, and epoch entries render as the bare kind. Each entry comes
// from the manager's own log, driven through the scenario that produces
// it.
func TestDecisionStringStagePrefix(t *testing.T) {
	want := map[DecisionKind]string{
		DecisionSLO:        "observe/slo",
		DecisionPlace:      "plan/place",
		DecisionQuarantine: "plan/quarantine",
		DecisionReadmit:    "plan/readmit",
		DecisionEvacuate:   "plan/evacuate",
		DecisionSkip:       "plan/skip",
		DecisionMigrate:    "plan/migrate",
		DecisionAbort:      "execute/abort",
		DecisionComplete:   "execute/complete",
		DecisionCrash:      "execute/crash",
		DecisionRecover:    "execute/recover",
	}
	got := map[DecisionKind][]string{}
	collect := func(m *Manager) {
		for _, d := range m.Log().Entries() {
			got[d.Kind] = append(got[d.Kind], d.String())
		}
	}

	// Placement and an SLO note.
	_, mgr, _, _, _, _ := failurePair(t)
	if _, err := mgr.PlaceVMDK(1<<20, trace.WC{OIOs: 1, IOSize: 4096}); err != nil {
		t.Fatal(err)
	}
	mgr.NoteSLOViolation(0, "store-a", "p99 over limit")
	collect(mgr)

	// Balancing against an idle fast store: BASIL migrates a small VMDK
	// (launch and completion); Pesto rejects a huge one on cost.
	balance := func(s Scheme, size int64) *Manager {
		eng := sim.NewEngine()
		slow := NewDatastore(newFlaky(eng, "slow", 2*sim.Millisecond), 0)
		fast := NewDatastore(newFlaky(eng, "fast", 10*sim.Microsecond), 0)
		cfg := DefaultConfig()
		cfg.Window = 5 * sim.Millisecond
		cfg.MinWindowRequests = 1
		m := NewManager(eng, cfg, s, []*Datastore{slow, fast})
		v, err := slow.CreateVMDK(1, size)
		if err != nil {
			t.Fatal(err)
		}
		p := workload.Profile{Name: "w", WriteRatio: 0.5, ReadRand: 0.5, WriteRand: 0.5,
			IOSize: 4096, OIO: 2, Footprint: 1 << 20}
		r := workload.NewRunner(eng, sim.NewRNG(1), p, v, 0)
		r.Start()
		m.Start()
		eng.RunFor(40 * sim.Millisecond)
		r.Stop()
		m.Stop()
		eng.Run()
		return m
	}
	collect(balance(BASIL(), 1<<20))
	collect(balance(Pesto(), 512<<20))

	// A destination that fails every write after two: the copy aborts.
	eng, mgr, a, b, _, fb := failurePair(t)
	okWrites := 2
	fb.fail = func(r *trace.IORequest) bool {
		if r.Op != trace.OpWrite || okWrites == 0 {
			return r.Op == trace.OpWrite
		}
		okWrites--
		return false
	}
	v, err := a.CreateVMDK(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	collect(mgr)

	// Quarantine, evacuation and readmission of a store whose writes fail.
	eng = sim.NewEngine()
	fa := newFlaky(eng, "failing", 10*sim.Microsecond)
	a = NewDatastore(fa, 0)
	b = NewDatastore(newFlaky(eng, "healthy", 10*sim.Microsecond), 0)
	cfg := DefaultConfig()
	cfg.Window = sim.Millisecond
	cfg.MinWindowRequests = 2
	cfg.QuarantineMinErrors = 3
	cfg.ProbationWindows = 3
	cfg.CopyRetryBackoff = 50 * sim.Microsecond
	mgr = NewManager(eng, cfg, LightSRM(), []*Datastore{a, b})
	if v, err = a.CreateVMDK(1, 1<<20); err != nil {
		t.Fatal(err)
	}
	failing := true
	fa.fail = func(r *trace.IORequest) bool { return failing && r.Op == trace.OpWrite }
	r := workload.NewRunner(eng, sim.NewRNG(1), workload.Profile{Name: "w", WriteRatio: 1.0,
		WriteRand: 0.5, IOSize: 4096, OIO: 4, Footprint: 1 << 20}, v, 0)
	r.Start()
	mgr.Start()
	eng.RunFor(20 * sim.Millisecond)
	failing = false
	eng.RunFor(30 * sim.Millisecond)
	r.Stop()
	mgr.Stop()
	eng.Run()
	collect(mgr)

	// A crash of the source mid-copy: the crash and the resume verdict.
	eng, mgr, a, b = journaledPair(t, LightSRM())
	if v, err = a.CreateVMDK(1, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := mgr.startMigration(v, b); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(100 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	mgr.OnCrash(CrashScope{Node: -1, Device: "store-a"})
	eng.Run()
	collect(mgr)

	for kind, prefix := range want {
		if len(got[kind]) == 0 {
			t.Errorf("no %v entry logged", kind)
		}
		for _, s := range got[kind] {
			if _, rest, _ := strings.Cut(s, "] "); !strings.HasPrefix(rest, prefix+" ") {
				t.Errorf("%v entry renders %q, want prefix %q", kind, s, prefix)
			}
		}
	}
	if _, rest, _ := strings.Cut(Decision{At: 5, Kind: DecisionEpoch, VMDK: -1, Detail: "w"}.String(), "] "); rest != "epoch w" {
		t.Errorf("epoch entry renders %q, want %q", rest, "epoch w")
	}
}
