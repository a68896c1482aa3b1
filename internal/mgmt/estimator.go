package mgmt

import (
	"repro/internal/device"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// observe builds the epoch's per-store performance vector, in store
// order: each store's window decision latency (Eq. 5), the technology
// idle estimate when the window has too little signal, EWMA-smoothed
// across epochs (Config.SmoothingAlpha). The idle estimate is computed
// once per store and reused for both the low-signal fallback and the
// Norm load index.
func (m *Manager) observe() []StorePerf {
	perfs := make([]StorePerf, 0, len(m.stores))
	for _, ds := range m.stores {
		wc, mp, n := ds.Mon.Window()
		idle := idleEstimateUS(ds.Dev.Kind())
		var p float64
		if n >= m.cfg.MinWindowRequests {
			p = m.perfOf(ds, wc, mp, n)
		} else {
			// Too little signal: estimate from the device technology so
			// an idle HDD is never mistaken for a fast destination.
			p = idle
		}
		if ds.ewmaSet {
			p = m.cfg.SmoothingAlpha*p + (1-m.cfg.SmoothingAlpha)*ds.ewmaUS
		}
		ds.ewmaUS, ds.ewmaSet = p, true
		perfs = append(perfs, StorePerf{
			Store: ds, WC: wc, MeasuredUS: mp, PerfUS: p,
			Norm: p / idle, Requests: n,
		})
	}
	return perfs
}

// idleEstimateUS is the decision latency assumed for a store with too
// little window traffic to measure: the characteristic lightly-loaded
// latency of the technology (Table 1 shapes).
func idleEstimateUS(k device.Kind) float64 {
	switch k {
	case device.KindNVDIMM:
		return 100
	case device.KindSSD:
		return 350
	default: // HDD
		return 8000
	}
}

// nvdimmModel returns the installed NVDIMM model when the scheme predicts
// (Scheme.Predicted) and ds is an NVDIMM store. Otherwise it reports
// false and decisions use the measurement: conventional devices have no bus
// contention to strip, and without a model there is nothing to predict
// with.
func (m *Manager) nvdimmModel(ds *Datastore) (perfmodel.Predictor, bool) {
	if !m.scheme.Predicted || ds.Dev.Kind() != device.KindNVDIMM {
		return nil, false
	}
	model, ok := m.models[device.KindNVDIMM]
	return model, ok
}

// perfOf computes the decision latency P_d of Eq. 5 from a store's
// window characterization, measured mean latency MP and request count.
// Measured schemes use MP, which under bus contention wrongly attributes
// interconnect queuing to the device. Predicted schemes (§5.1) return
// the model's contention-free PP for NVDIMM stores instead.
//
// The measured OIO feature is itself contention-polluted: bus queuing
// inflates occupancy, and feeding the inflated value to the model makes
// it predict the (legitimately slow) quiet behaviour at that depth. The
// de-confounded queue depth comes from a Little's-law fixed point: the
// arrival rate λ is demand-driven, so the quiet-equivalent occupancy is
// λ·PP, iterated to consistency and never above the measurement.
func (m *Manager) perfOf(ds *Datastore, wc trace.WC, measuredUS float64, requests int) float64 {
	model, ok := m.nvdimmModel(ds)
	if !ok {
		return measuredUS
	}
	lambdaPerUS := float64(requests) / m.cfg.Window.Micros()
	// Iterate upward from depth 1 so the fixed point found is the
	// smallest consistent one — the quiet operating point — rather
	// than the contention-inflated one.
	quietWC := wc
	if quietWC.OIOs > 1 {
		quietWC.OIOs = 1
	}
	pp := model.PredictUS(quietWC)
	for i := 0; i < 4; i++ {
		est := lambdaPerUS * pp
		if est > wc.OIOs {
			est = wc.OIOs
		}
		quietWC.OIOs = est
		pp = model.PredictUS(quietWC)
	}
	// Eq. 3 defines BC = MP − PP ≥ 0, so the contention-free
	// estimate can never exceed the measurement.
	if pp > measuredUS {
		pp = measuredUS
	}
	return pp
}

// placementUS predicts the store's latency with a new VMDK of estimated
// characterization est added (Eq. 4). Predicted schemes merge est into
// the NVDIMM store's current window and ask the model; otherwise the
// store's current decision latency currentUS stands, since without a
// model there is no way to predict the new VMDK's effect.
func (m *Manager) placementUS(ds *Datastore, currentUS float64, est trace.WC) float64 {
	model, ok := m.nvdimmModel(ds)
	if !ok {
		return currentUS
	}
	merged := est
	cur, _, n := ds.Mon.Window()
	if n > 0 {
		merged.OIOs += cur.OIOs
	}
	return model.PredictUS(merged)
}
