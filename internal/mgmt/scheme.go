package mgmt

import "repro/internal/trace"

// Gate places the Eq. 6–7 cost/benefit test (Benefit > Cost) in the
// migration lifecycle.
type Gate uint8

const (
	// GateNone never weighs cost against benefit: every balancing
	// proposal that passes τ and hysteresis launches (BASIL, BCA).
	GateNone Gate = iota
	// GateProposal tests once, when a balancing migration is proposed
	// (Pesto): without write redirection the whole copy either starts or
	// it does not.
	GateProposal
	// GateCopy re-tests every epoch on the background copy of an
	// in-flight migration, pausing it while cost wins (§5.2 lazy
	// migration). It applies only with Redirect: pausing an eager copy
	// would strand the writes redirection is meant to absorb.
	GateCopy
)

// Scheme is one management policy, spanning the paper's baselines (§2.2)
// and its proposed designs (§5). The six schemes differ on exactly four
// axes, one field each; every scheme observes with the same EWMA-smoothed
// window sweep and plans with the same failure pre-pass, copy re-gating
// and τ-imbalance balancing. The zero value is BASIL, unnamed.
type Scheme struct {
	// Name labels results.
	Name string
	// Predicted selects the §5.1 contention-aware estimate: NVDIMM
	// stores are judged by the model's contention-free PP instead of the
	// measured MP (Eq. 5), and placement predicts with the model (Eq. 4).
	// The System trains a model at assembly when it is set.
	Predicted bool
	// Gate places the Eq. 6–7 cost/benefit test.
	Gate Gate
	// Redirect selects §5.2 lazy migration (LightSRM's I/O redirection):
	// upcoming writes land on the destination and only the complement is
	// copied. Otherwise every block is copied eagerly and reads and
	// writes keep routing to the source until the move commits.
	Redirect bool
	// Tagged marks migration traffic ClassMigrated so the §5.3 NVDIMM
	// scheduling and cache-bypass optimizations can see it.
	Tagged bool
}

// BASIL is the FAST'10 baseline: online measured-latency modeling and
// load balancing, no cost-benefit analysis, full copy migration.
func BASIL() Scheme { return Scheme{Name: "BASIL"} }

// Pesto is the SoCC'11 baseline: BASIL plus cost-benefit analysis at
// proposal time.
func Pesto() Scheme { return Scheme{Name: "Pesto", Gate: GateProposal} }

// LightSRM is the ICS'15 baseline: I/O redirection instead of an eager
// full copy, with the background copy gated by cost/benefit each epoch.
func LightSRM() Scheme { return Scheme{Name: "LightSRM", Gate: GateCopy, Redirect: true} }

// BCA is the paper's bus-contention-aware management alone (§5.1): the
// contention-stripping estimator with eager full-copy migration.
func BCA() Scheme { return Scheme{Name: "BCA", Predicted: true} }

// BCALazy adds the §5.2 lazy migration (write redirection + per-epoch
// copy gating) to BCA.
func BCALazy() Scheme {
	return Scheme{Name: "BCA+Lazy", Predicted: true, Gate: GateCopy, Redirect: true}
}

// Full is the complete proposal: BCA + lazy migration + tagged migration
// traffic so the NVDIMM-side optimizations (§5.3) engage.
func Full() Scheme {
	return Scheme{Name: "BCA+Lazy+Arch", Predicted: true, Gate: GateCopy, Redirect: true, Tagged: true}
}

// AllSchemes returns the evaluation lineup.
func AllSchemes() []Scheme {
	return []Scheme{BASIL(), Pesto(), LightSRM(), BCA(), BCALazy(), Full()}
}

// Named returns a copy of the scheme carrying a different display name —
// the way ablations derive relabeled variants of a canonical scheme.
func (s Scheme) Named(name string) Scheme {
	s.Name = name
	return s
}

// NeedsModel reports whether the scheme consults a trained performance
// model (the System trains one at assembly if so).
func (s Scheme) NeedsModel() bool { return s.Predicted }

// gatesCopies reports whether in-flight background copies re-run the
// Eq. 6–7 gate every epoch (lazy migration's pause/resume).
func (s Scheme) gatesCopies() bool { return s.Redirect && s.Gate == GateCopy }

// Describe renders the policy in one line, e.g.
// "observe=ewma est=contention-aware plan=failure,regate,balance exec=redirect+gate+tag".
func (s Scheme) Describe() string {
	est := "measured"
	if s.Predicted {
		est = "contention-aware"
	}
	plan := "failure,regate,balance"
	if s.Gate == GateProposal {
		plan += "(gated)"
	}
	exec := "copy"
	if s.Redirect {
		exec = "redirect"
	}
	if s.gatesCopies() {
		exec += "+gate"
	}
	if s.Tagged {
		exec += "+tag"
	}
	return "observe=ewma est=" + est + " plan=" + plan + " exec=" + exec
}

// MigratedClass reports the traffic class the scheme tags migration I/O
// with.
func (s Scheme) MigratedClass() trace.Class {
	if s.Tagged {
		return trace.ClassMigrated
	}
	return trace.ClassNormal
}
