package mgmt

import (
	"fmt"
	"sort"

	"repro/internal/device"
)

// failurePass is the epoch's failure pre-pass: per-epoch error-rate
// thresholding into quarantine, evacuation of quarantined stores, and
// probation-based readmission (graceful degradation), scanning every
// store in store order. It also aborts operator-paused copies whose
// destination was quarantined — a paused copy cannot make progress off a
// failing device, and leaving it active would pin the balancing budget
// forever.
func (m *Manager) failurePass(perfs []StorePerf) {
	for i := range perfs {
		m.failureCheck(&perfs[i], perfs)
	}
	// An operator-paused balancing copy whose destination just entered
	// quarantine can never finish (the copy is stopped and the target is
	// failing): unwind it so the source stays authoritative and the
	// balancing budget is released. Snapshot the active set — an abort
	// with nothing copied yet completes synchronously and edits it.
	for _, mig := range append([]*Migration(nil), m.active...) {
		if mig.opPaused && !mig.aborting && !mig.completed && mig.dst.quarantined {
			mig.abort("destination quarantined while copy paused")
		}
	}
}

// failureCheck runs the quarantine/probation/evacuation state machine
// for one store.
func (m *Manager) failureCheck(sp *StorePerf, perfs []StorePerf) {
	ds := sp.Store
	errs := ds.Mon.WindowErrors()
	if !ds.quarantined {
		total := errs + sp.Requests
		if errs >= m.cfg.QuarantineMinErrors && total > 0 &&
			float64(errs)/float64(total) >= m.cfg.QuarantineErrorRate {
			ds.quarantined = true
			ds.quarantinedAt = m.eng.Now()
			ds.cleanWindows = 0
			m.stats.Quarantines++
			m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionQuarantine,
				VMDK: -1, Src: ds.Dev.Name(),
				Detail: fmt.Sprintf("%d/%d window requests failed (threshold %.0f%%)",
					errs, total, m.cfg.QuarantineErrorRate*100)})
		}
	} else {
		if errs == 0 {
			ds.cleanWindows++
		} else {
			ds.cleanWindows = 0
		}
		if ds.cleanWindows >= m.cfg.ProbationWindows {
			ds.quarantined = false
			m.stats.Readmissions++
			m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionReadmit,
				VMDK: -1, Src: ds.Dev.Name(),
				Detail: fmt.Sprintf("probation served (%d clean windows)", m.cfg.ProbationWindows)})
		}
	}
	if ds.quarantined {
		m.evacuate(ds, perfs)
	}
}

// evacuate launches migrations moving VMDKs off a quarantined store onto
// the best healthy store with room, bypassing the τ/hysteresis/
// cost-benefit gates — leaving a failing device is not an optimization
// decision. Evacuations count against their own concurrency budget.
func (m *Manager) evacuate(ds *Datastore, perfs []StorePerf) {
	evacs := 0
	for _, mig := range m.active {
		if mig.evac {
			evacs++
		}
	}
	for _, v := range ds.VMDKs() {
		if evacs >= m.cfg.MaxConcurrentEvacuations {
			return
		}
		if v.Migrating() {
			continue
		}
		var dst *Datastore
		var dstPerf float64
		for i := range perfs {
			cand := perfs[i].Store
			if cand == ds || cand.quarantined || cand.Free() < v.Size {
				continue
			}
			if dst == nil || perfs[i].PerfUS < dstPerf {
				dst = cand
				dstPerf = perfs[i].PerfUS
			}
		}
		if dst == nil {
			return // nowhere healthy to go; retry next epoch
		}
		if err := m.startMigration(v, dst); err != nil {
			continue
		}
		mig := m.active[len(m.active)-1]
		mig.evac = true
		evacs++
		m.stats.Evacuations++
		v.lastMoveEpoch = m.stats.Epochs
		m.recordMove(v, ds, dst)
		m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionEvacuate, VMDK: v.ID,
			Src: ds.Dev.Name(), Dst: dst.Dev.Name(),
			Detail: fmt.Sprintf("evacuating quarantined store (dst %.0fus)", dstPerf)})
	}
}

// balance implements §5.1.2 load balancing: find the max/min stores,
// check the imbalance threshold τ with debouncing, pick the busiest
// candidate VMDK under the hysteresis rules, and launch at most one
// migration, respecting MaxConcurrentMigrations. The overloaded side only
// considers stores that actually hold active VMDKs; the destination side
// considers every store (idle ones use the technology estimate).
func (m *Manager) balance(perfs []StorePerf) {
	if m.balancingMigrations() >= m.cfg.MaxConcurrentMigrations {
		return
	}
	maxP, minP := pickPairSweep(m, perfs)
	if maxP == nil || minP == nil || maxP == minP {
		return
	}
	delta := maxP.Norm - minP.Norm
	if maxP.Norm <= 0 || delta/maxP.Norm <= m.cfg.Tau {
		m.imbalanceRun = 0
		return
	}
	m.imbalanceRun++
	if m.imbalanceRun < m.cfg.DebounceWindows {
		return
	}
	src, dst := maxP.Store, minP.Store

	// Candidate: the busiest non-migrating VMDK on the overloaded store
	// that fits on the destination, excluding recent movers (hysteresis).
	var cand *VMDK
	for _, v := range balanceCandidates(src) {
		if v.Migrating() || v.Size > dst.Free() {
			continue
		}
		if m.stats.Epochs-v.lastMoveEpoch < m.cfg.MinResidenceWindows && v.lastMoveEpoch > 0 {
			continue
		}
		if cand == nil || v.windowRequests > cand.windowRequests {
			cand = v
		}
	}
	if cand == nil || cand.windowRequests == 0 {
		return
	}

	// Proposal-time gate: without write redirection, cost/benefit
	// decides whether the migration is worth starting at all.
	if m.scheme.Gate == GateProposal {
		cost, benefit := m.costBenefit(cand, maxP, minP, cand.Size)
		if benefit <= cost {
			m.stats.MigrationsSkipped++
			m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionSkip, VMDK: cand.ID,
				Src: src.Dev.Name(), Dst: dst.Dev.Name(),
				Detail: fmt.Sprintf("cost %.0fus > benefit %.0fus", cost, benefit)})
			return
		}
	}
	if err := m.startMigration(cand, dst); err != nil {
		return
	}
	cand.lastMoveEpoch = m.stats.Epochs
	m.recordMove(cand, src, dst)
	m.logDecision(Decision{At: m.eng.Now(), Kind: DecisionMigrate, VMDK: cand.ID,
		Src: src.Dev.Name(), Dst: dst.Dev.Name(),
		Detail: fmt.Sprintf("norm %.1f vs %.1f (tau %.2f)", maxP.Norm, minP.Norm, m.cfg.Tau)})
}

// pickPairSweep selects the balancing pair in one scan of the epoch's
// performance vector: the highest-Norm eligible source and the
// lowest-PerfUS destination, the first store winning ties.
func pickPairSweep(m *Manager, perfs []StorePerf) (maxP, minP *StorePerf) {
	for i := range perfs {
		sp := &perfs[i]
		if sp.Store.Quarantined() {
			// Failure-quarantined stores are handled by evacuation; they
			// are neither a load-balancing source nor a destination.
			continue
		}
		if sp.Store.NumVMDKs() > 0 && sp.Requests >= m.cfg.MinWindowRequests {
			if maxP == nil || sp.Norm > maxP.Norm {
				maxP = sp
			}
		}
		// Destination: lowest *absolute* expected latency — a lightly
		// loaded slow device is still a bad home for hot data.
		if minP == nil || sp.PerfUS < minP.PerfUS {
			minP = sp
		}
	}
	return maxP, minP
}

// balanceCandidates returns the migration-candidate pool on the
// overloaded store in ID order. Only touched VMDKs can qualify — an
// untouched VMDK has zero window requests, and a zero-request best
// candidate never launches — so the pool is the store's touched list
// (entries whose VMDK migrated away mid-window belong to the new
// primary and are skipped).
func balanceCandidates(src *Datastore) []*VMDK {
	out := make([]*VMDK, 0, len(src.touched))
	for _, v := range src.touched {
		if v.src == src {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// costBenefit evaluates Eq. 6 and Eq. 7 for moving v from src to dst,
// with remaining bytes still to copy. Per-unit latencies are the
// per-4KB-scaled P_d values; bus-contention terms come from MP − PP on
// NVDIMM stores when a model is available.
func (m *Manager) costBenefit(v *VMDK, src, dst *StorePerf, remaining int64) (costUS, benefitUS float64) {
	unit := func(p StorePerf) float64 {
		ios := p.WC.IOSize
		if ios < BlockSize {
			ios = BlockSize
		}
		return p.PerfUS * BlockSize / ios
	}
	bc := func(p StorePerf) float64 {
		if p.Store.Dev.Kind() != device.KindNVDIMM {
			return 0
		}
		model, ok := m.models[device.KindNVDIMM]
		if !ok {
			return 0
		}
		d := p.MeasuredUS - model.PredictUS(p.WC)
		if d < 0 {
			return 0
		}
		ios := p.WC.IOSize
		if ios < BlockSize {
			ios = BlockSize
		}
		return d * BlockSize / ios
	}

	qMig := float64(remaining) / BlockSize
	costUS = qMig * (unit(*src) + unit(*dst) + bc(*src) + bc(*dst))

	// Benefit (Eq. 7): per-request latency gain for the candidate's
	// stream once it runs at the destination, accrued over every request
	// it will issue across the benefit horizon. The destination's
	// post-migration latency is approximated by its current per-request
	// latency bumped by the share of load that moves; an idle or barely
	// loaded destination uses the technology estimate already folded into
	// PerfUS.
	share := 0.0
	if total := src.Store.WindowLoad(); total > 0 {
		share = float64(v.windowRequests) / float64(total)
	}
	dstAfter := dst.PerfUS * (1 + share)
	gain := src.PerfUS - dstAfter
	if gain < 0 {
		gain = 0
	}
	benefitUS = gain * float64(v.windowRequests) * float64(m.cfg.BenefitHorizonWindows)
	return costUS, benefitUS
}
