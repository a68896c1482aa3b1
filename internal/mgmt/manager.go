package mgmt

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/invariant"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config parameterizes the management loop.
type Config struct {
	// Tau is the imbalance threshold τ (§5.1.2; default 0.5 per §6.2.1).
	Tau float64
	// Window is the management epoch length.
	Window sim.Time
	// MinWindowRequests skips decisions for stores with fewer completed
	// requests in the window (too little signal).
	MinWindowRequests int
	// ChunkBytes is the migration copy granularity.
	ChunkBytes int64
	// CopyDepth is the number of concurrent in-flight copy chunks.
	CopyDepth int
	// MaxConcurrentMigrations bounds simultaneous migrations.
	MaxConcurrentMigrations int
	// BenefitHorizonWindows is how many future management windows the
	// Eq. 7 benefit is integrated over ("Once migrated, a VMDK will be
	// operated in a relatively long time", §5.1.2). Default 50.
	BenefitHorizonWindows int
	// MinResidenceWindows is the hysteresis: a VMDK that just moved is
	// not re-selected as a migration candidate for this many windows.
	MinResidenceWindows uint64
	// DebounceWindows requires the imbalance condition to hold for this
	// many consecutive epochs before a migration triggers, filtering
	// transient spikes (e.g. cold caches right after a migration).
	// Default 1 (no debouncing).
	DebounceWindows int
	// SmoothingAlpha is the EWMA weight applied to per-store decision
	// latencies across epochs (1 = no smoothing, use the raw window).
	// Smoothing suppresses single-window noise (cache-hit variance)
	// while persistent shifts — sustained load or bus contention —
	// still move the estimate within a few windows. Default 0.5.
	SmoothingAlpha float64
	// DecisionLogCap bounds the decision audit ring (entries); older
	// entries are overwritten and counted as dropped. <= 0 disables
	// recording. Default 1024 — enough to audit recent behaviour without
	// unbounded growth on production-length runs.
	DecisionLogCap int

	// CopyRetryLimit is how many attempts each migration copy chunk gets
	// before the whole migration aborts and unwinds. Default 4.
	CopyRetryLimit int
	// CopyRetryBackoff is the delay before a chunk's first retry, doubling
	// each attempt (clamped at 64×). Default 500 µs.
	CopyRetryBackoff sim.Time
	// QuarantineErrorRate is the per-window failed-completion fraction at
	// which a datastore is quarantined. Default 0.05.
	QuarantineErrorRate float64
	// QuarantineMinErrors is the minimum absolute failed completions in a
	// window before the rate is trusted (one error in a nearly idle window
	// is not a failing device). Default 4.
	QuarantineMinErrors int
	// ProbationWindows is how many consecutive error-free windows a
	// quarantined store must serve before readmission. Default 8.
	ProbationWindows int
	// MaxConcurrentEvacuations bounds evacuation migrations launched per
	// epoch off quarantined stores (in addition to, not gated by,
	// MaxConcurrentMigrations). Default 2.
	MaxConcurrentEvacuations int

	// Journal arms the durable migration journal (DESIGN.md §13): intent/
	// progress/commit/abort records at chunk granularity, enabling crash
	// recovery. Off by default — journal-free runs are byte-identical to
	// builds that predate the crash model.
	Journal bool
	// JournalAppendDelay is how long a lazy (background-copy progress)
	// journal append sits in the write buffer before persisting; a crash
	// inside that window loses the record. Synchronous appends (intent,
	// abort, commit, redirected-write marks) are durable immediately.
	// Default 2 µs.
	JournalAppendDelay sim.Time
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{
		Tau:                     0.5,
		Window:                  10 * sim.Millisecond,
		MinWindowRequests:       8,
		ChunkBytes:              256 << 10,
		CopyDepth:               4,
		MaxConcurrentMigrations: 1,
		BenefitHorizonWindows:   50,
		MinResidenceWindows:     4,
		DebounceWindows:         1,
		SmoothingAlpha:          0.5,
		DecisionLogCap:          1024,

		CopyRetryLimit:           4,
		CopyRetryBackoff:         500 * sim.Microsecond,
		QuarantineErrorRate:      0.05,
		QuarantineMinErrors:      4,
		ProbationWindows:         8,
		MaxConcurrentEvacuations: 2,
	}
}

// Stats aggregates management activity for the experiments.
type Stats struct {
	Epochs              uint64
	MigrationsStarted   uint64
	MigrationsCompleted uint64
	MigrationsSkipped   uint64 // proposals rejected by cost/benefit
	BytesCopied         int64
	BytesMirrored       int64 // blocks satisfied by write redirection
	MigrationTime       sim.Time
	// PingPongs counts migrations that return a VMDK to a store it left
	// earlier — the unnecessary-migration signature of Fig. 3.
	PingPongs uint64

	// Failure-aware management counters.
	CopyRetries       uint64 // migration chunk attempts that failed and retried
	MigrationsAborted uint64 // migrations that exhausted retries and unwound
	Quarantines       uint64 // datastores entering quarantine
	Readmissions      uint64 // datastores released after probation
	Evacuations       uint64 // migrations launched to empty quarantined stores

	// Crash-recovery counters (DESIGN.md §13).
	Crashes           uint64 // power-loss events reaching the manager
	RecoveryResumes   uint64 // migrations resumed forward after journal replay
	RecoveryRollbacks uint64 // migrations rolled back to source after replay
}

// Manager drives storage management over a set of datastores: each epoch
// it observes every store's window and decides what moves under its
// Scheme, while the migration engine (eager or lazy, per the scheme) runs
// continuously in between.
type Manager struct {
	eng    *sim.Engine
	cfg    Config
	scheme Scheme
	stores []*Datastore
	models map[device.Kind]perfmodel.Predictor

	nextVMDKID   int
	imbalanceRun int // consecutive epochs the imbalance condition held
	active       []*Migration
	history      map[int][]string // VMDK id → past store names (ping-pong detection)
	stats        Stats
	running      bool
	epochTimer   *sim.Timer
	network      Network
	log          DecisionLog
	tr           *telemetry.Tracer
	track        string
	journal      *Journal
	inv          *invariant.Checker

	// OnEpoch, when set, observes each epoch's per-store performance
	// vector (experiment instrumentation). Each epoch builds a fresh
	// slice, so consumers may retain it.
	OnEpoch func(perf []StorePerf)
}

// StorePerf is one store's view in a management epoch.
type StorePerf struct {
	Store      *Datastore
	WC         trace.WC
	MeasuredUS float64
	PerfUS     float64 // the P_d used for decisions (Eq. 5), µs
	// Norm is PerfUS divided by the technology's lightly-loaded latency:
	// a unitless load index so a 150 µs NVDIMM floor and a 400 µs SSD
	// floor both read as ~1 when unloaded (BASIL-style normalization).
	Norm     float64
	Requests int
}

// NewManager builds a manager. Models may be nil for schemes that never
// consult them. A zero Scheme is BASIL.
func NewManager(eng *sim.Engine, cfg Config, scheme Scheme, stores []*Datastore) *Manager {
	if cfg.Tau <= 0 {
		cfg.Tau = 0.5
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * sim.Millisecond
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 256 << 10
	}
	if cfg.CopyDepth <= 0 {
		cfg.CopyDepth = 4
	}
	if cfg.MaxConcurrentMigrations <= 0 {
		cfg.MaxConcurrentMigrations = 1
	}
	if cfg.BenefitHorizonWindows <= 0 {
		cfg.BenefitHorizonWindows = 50
	}
	if cfg.SmoothingAlpha <= 0 || cfg.SmoothingAlpha > 1 {
		cfg.SmoothingAlpha = 0.5
	}
	if cfg.CopyRetryLimit <= 0 {
		cfg.CopyRetryLimit = 4
	}
	if cfg.CopyRetryBackoff <= 0 {
		cfg.CopyRetryBackoff = 500 * sim.Microsecond
	}
	if cfg.QuarantineErrorRate <= 0 {
		cfg.QuarantineErrorRate = 0.05
	}
	if cfg.QuarantineMinErrors <= 0 {
		cfg.QuarantineMinErrors = 4
	}
	if cfg.ProbationWindows <= 0 {
		cfg.ProbationWindows = 8
	}
	if cfg.MaxConcurrentEvacuations <= 0 {
		cfg.MaxConcurrentEvacuations = 2
	}
	if cfg.JournalAppendDelay <= 0 {
		cfg.JournalAppendDelay = 2 * sim.Microsecond
	}
	m := &Manager{
		eng:     eng,
		cfg:     cfg,
		scheme:  scheme,
		stores:  stores,
		models:  make(map[device.Kind]perfmodel.Predictor),
		history: make(map[int][]string),
	}
	if cfg.DecisionLogCap > 0 {
		m.log.SetCapacity(cfg.DecisionLogCap)
	}
	if cfg.Journal {
		m.journal = newJournal(eng, cfg.JournalAppendDelay)
	}
	return m
}

// Journal returns the migration journal (nil unless Config.Journal).
func (m *Manager) Journal() *Journal { return m.journal }

// SetTracer bridges the decision log into trace events: every logged
// decision becomes an instant event on track, and completed migrations
// become spans on track+".mig". A nil tracer disables the bridge.
func (m *Manager) SetTracer(tr *telemetry.Tracer, track string) {
	m.tr = tr
	m.track = track
}

// logDecision records d in the ring and mirrors it to the tracer.
func (m *Manager) logDecision(d Decision) {
	m.log.add(d)
	if m.tr != nil {
		args := []telemetry.Arg{telemetry.S("detail", d.Detail)}
		if d.VMDK >= 0 {
			args = append(args, telemetry.I("vmdk", int64(d.VMDK)))
		}
		if d.Src != "" {
			args = append(args, telemetry.S("src", d.Src))
		}
		if d.Dst != "" {
			args = append(args, telemetry.S("dst", d.Dst))
		}
		m.tr.Instant(m.track, d.Kind.String(), "mgmt", d.At, args...)
	}
}

// RegisterTelemetry exposes management activity as gauges under prefix
// (e.g. "mgmt."): epoch and migration counters, migration byte totals,
// in-flight migrations, and the decision log's length and drop count.
func (m *Manager) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+"epochs", func() float64 { return float64(m.stats.Epochs) })
	reg.Gauge(prefix+"migrations.started", func() float64 { return float64(m.stats.MigrationsStarted) })
	reg.Gauge(prefix+"migrations.completed", func() float64 { return float64(m.stats.MigrationsCompleted) })
	reg.Gauge(prefix+"migrations.skipped", func() float64 { return float64(m.stats.MigrationsSkipped) })
	reg.Gauge(prefix+"migrations.active", func() float64 { return float64(len(m.active)) })
	reg.Gauge(prefix+"migrations.pingpongs", func() float64 { return float64(m.stats.PingPongs) })
	reg.Gauge(prefix+"bytes_copied", func() float64 { return float64(m.stats.BytesCopied) })
	reg.Gauge(prefix+"bytes_mirrored", func() float64 { return float64(m.stats.BytesMirrored) })
	reg.Gauge(prefix+"decision_log.len", func() float64 { return float64(m.log.Len()) })
	reg.Gauge(prefix+"decision_log.dropped", func() float64 { return float64(m.log.Dropped()) })
	reg.Gauge(prefix+"migrations.aborted", func() float64 { return float64(m.stats.MigrationsAborted) })
	reg.Gauge(prefix+"copy_retries", func() float64 { return float64(m.stats.CopyRetries) })
	reg.Gauge(prefix+"quarantines", func() float64 { return float64(m.stats.Quarantines) })
	reg.Gauge(prefix+"readmissions", func() float64 { return float64(m.stats.Readmissions) })
	reg.Gauge(prefix+"evacuations", func() float64 { return float64(m.stats.Evacuations) })
	reg.Gauge(prefix+"stores.quarantined", func() float64 {
		n := 0
		for _, ds := range m.stores {
			if ds.quarantined {
				n++
			}
		}
		return float64(n)
	})
}

// SetModel installs the trained performance model for a device kind
// (required for schemes that report NeedsModel).
func (m *Manager) SetModel(kind device.Kind, p perfmodel.Predictor) {
	m.models[kind] = p
}

// Network moves migration data between server nodes. A nil network makes
// cross-node transfers free (single-node setups).
type Network interface {
	// Transfer delivers bytes from srcNode to dstNode, invoking done when
	// the data has arrived (err nil) or the transfer failed (err non-nil,
	// e.g. a fault-injected link drop).
	Transfer(srcNode, dstNode int, bytes int64, done func(error))
}

// SetNetwork installs the cross-node transfer model.
func (m *Manager) SetNetwork(n Network) { m.network = n }

// Scheme returns the active scheme.
func (m *Manager) Scheme() Scheme { return m.scheme }

// Stats returns a snapshot of management statistics.
func (m *Manager) Stats() Stats { return m.stats }

// Stores returns the managed datastores.
func (m *Manager) Stores() []*Datastore { return m.stores }

// ActiveMigrations returns in-progress migrations.
func (m *Manager) ActiveMigrations() int { return len(m.active) }

// PauseMigration stops the background copy of the given VMDK's in-flight
// migration (write redirection keeps routing writes to the destination).
// It reports whether a matching migration was found. The pause is sticky
// — cost/benefit re-evaluation does not override it — until
// ResumeMigration.
func (m *Manager) PauseMigration(vmdkID int) bool {
	for _, mig := range m.active {
		if mig.v.ID == vmdkID {
			mig.opPaused = true
			return true
		}
	}
	return false
}

// ResumeMigration restarts a paused background copy.
func (m *Manager) ResumeMigration(vmdkID int) bool {
	for _, mig := range m.active {
		if mig.v.ID == vmdkID {
			if mig.opPaused {
				mig.opPaused = false
				mig.pump()
			}
			return true
		}
	}
	return false
}

// Start arms the periodic management-epoch timer.
func (m *Manager) Start() {
	if m.running {
		return
	}
	m.running = true
	m.epochTimer = m.eng.Every(m.cfg.Window, m.epoch)
}

// Stop cancels the epoch timer; in-flight migrations keep draining.
func (m *Manager) Stop() {
	if !m.running {
		return
	}
	m.running = false
	m.epochTimer.Stop()
}

// epoch runs one management round: observe every store's window, hand
// the view to OnEpoch, then decide — the failure pre-pass, re-gating of
// in-flight copies with the fresh window data, and balancing. Order
// matters for determinism and correctness: a failing store is never
// chosen as a destination this epoch, and launches from the balancing
// pass are not re-gated until the next epoch.
func (m *Manager) epoch() {
	m.stats.Epochs++

	perfs := m.observe()
	if m.OnEpoch != nil {
		m.OnEpoch(perfs)
	}
	m.failurePass(perfs)
	for _, mig := range m.active {
		mig.regate(perfs)
	}
	m.balance(perfs)

	for _, ds := range m.stores {
		ds.resetWindow()
	}
	m.checkInvariants("epoch")
}

// balancingMigrations counts active non-evacuation migrations (the
// MaxConcurrentMigrations budget; evacuations have their own).
func (m *Manager) balancingMigrations() int {
	n := 0
	for _, mig := range m.active {
		if !mig.evac {
			n++
		}
	}
	return n
}

// recordMove tracks placement history for ping-pong detection.
func (m *Manager) recordMove(v *VMDK, src, dst *Datastore) {
	h := m.history[v.ID]
	for _, past := range h {
		if past == dst.Dev.Name() {
			m.stats.PingPongs++
			break
		}
	}
	m.history[v.ID] = append(h, src.Dev.Name())
}

// PlaceVMDK implements the §5.1.1 initial placement (Eq. 4): choose the
// datastore minimizing the average predicted system performance, skipping
// candidates whose placement would immediately trigger the imbalance
// threshold.
func (m *Manager) PlaceVMDK(size int64, est trace.WC) (*VMDK, error) {
	type cand struct {
		ds      *Datastore
		avg     float64
		trigger bool
	}
	perfs := make([]float64, len(m.stores))
	for i, ds := range m.stores {
		wc, mp, n := ds.Mon.Window()
		if n >= m.cfg.MinWindowRequests {
			perfs[i] = m.perfOf(ds, wc, mp, n)
		} else {
			perfs[i] = idleEstimateUS(ds.Dev.Kind())
		}
	}
	var cands []cand
	for i, ds := range m.stores {
		if ds.Quarantined() {
			continue // Eq. 4 never places onto a failing store
		}
		if ds.Free() < size {
			continue
		}
		// Predicted performance of ds with the new VMDK folded in: the
		// scheme decides whether a model prediction or the store's
		// current decision latency is used (idle stores already carry
		// the technology estimate).
		withNew := m.placementUS(ds, perfs[i], est)
		// Eq. 4: average across devices with candidate i replaced.
		sum := 0.0
		for j := range perfs {
			if j == i {
				sum += withNew
			} else {
				sum += perfs[j]
			}
		}
		avg := sum / float64(len(perfs))
		// Would this placement immediately trip the imbalance detector?
		maxP, minP := withNew, withNew
		for j, p := range perfs {
			if j == i {
				continue
			}
			if p > maxP {
				maxP = p
			}
			if p < minP {
				minP = p
			}
		}
		trigger := maxP > 0 && (maxP-minP)/maxP > m.cfg.Tau && withNew == maxP
		cands = append(cands, cand{ds: ds, avg: avg, trigger: trigger})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("mgmt: no datastore can hold %d bytes", size)
	}
	best := -1
	for pass := 0; pass < 2 && best < 0; pass++ {
		for i, c := range cands {
			if pass == 0 && c.trigger {
				continue // §5.1.1: remove candidates that trigger migration
			}
			if best < 0 || c.avg < cands[best].avg {
				best = i
			}
		}
	}
	m.nextVMDKID++
	v, err := cands[best].ds.CreateVMDK(m.nextVMDKID, size)
	if err == nil {
		m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionPlace, VMDK: v.ID,
			Dst:    cands[best].ds.Dev.Name(),
			Detail: fmt.Sprintf("avg system perf %.0fus (Eq. 4)", cands[best].avg)})
	}
	return v, err
}
