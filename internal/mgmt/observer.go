package mgmt

import "repro/internal/device"

// SmoothingObserver is the default observe stage: it reads each store's
// window monitor, asks the scheme's estimator for the Eq. 5 decision
// latency, substitutes the technology idle estimate when the window has
// too little signal, and EWMA-smooths the result across epochs
// (Config.SmoothingAlpha). The idle estimate is computed once per store
// and reused for both the low-signal fallback and the Norm load index.
type SmoothingObserver struct{}

// Observe builds the epoch's per-store performance vector, in store
// order. The EWMA memory lives on the Manager (m.smoothed), keyed by
// store, so the observer itself stays a stateless value.
func (SmoothingObserver) Observe(m *Manager) []StorePerf {
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
		// EWMA-smooth the decision latency across epochs.
		if prev, ok := m.smoothed[ds]; ok {
			p = m.cfg.SmoothingAlpha*p + (1-m.cfg.SmoothingAlpha)*prev
		}
		m.smoothed[ds] = p
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
