package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/mgmt"
	"repro/internal/sim"
)

// layerCounts are the simulated per-layer counts of one measured run,
// read from the program's public accessors after the drain. They are
// deterministic: every run of one seed must reproduce them exactly.
// Counts sum over nodes; means are weighted by the count they average.
type layerCounts struct {
	Engine sim.EngineProfile

	IOIssued    uint64
	IOCompleted uint64
	IOErrored   uint64
	IOInFlight  uint64
	MemLines    uint64

	DRAMAccesses   uint64
	DRAMRowHitRate float64

	BusMemGrants    uint64
	BusIOGrants     uint64
	BusIOWaitUSMean float64
	BusUtil         float64

	NVDIMMRequests      uint64
	NVDIMMBypassedReads uint64
	NVDIMMStalledWrites uint64
	NVDIMMLatencyUSMean float64
	NVDIMMContentionUS  float64

	CacheHits   uint64
	CacheMisses uint64

	SchedCompletedPersistent uint64
	SchedCompletedMigrated   uint64
	SchedNPBInsertions       uint64
	SchedPersistentWaitUS    float64
	SchedMigratedWaitUS      float64

	FTLUserWrites uint64
	FTLGCRuns     uint64
	FTLGCWrites   uint64
	FTLErases     uint64
	FTLWriteAmp   float64

	SSDRequests uint64
	HDDRequests uint64
	HDDSeeks    uint64

	Mgmt         mgmt.Stats
	NetworkBytes int64

	TelemetrySamples int
	TailWindows      int
}

// collectCounts reads the layer counts of a drained system.
func collectCounts(sys *core.System) layerCounts {
	var c layerCounts
	c.Engine = sys.Cluster.Eng.Profile()
	for _, r := range sys.Runners {
		c.IOIssued += r.Issued()
		c.IOCompleted += r.Completed()
		c.IOErrored += r.Errored()
		c.IOInFlight += uint64(r.InFlight())
	}

	var rowHits, served, ioWait, nvLat, persistWait, migWait float64
	var channels int
	for _, n := range sys.Cluster.Nodes {
		for _, g := range n.MemGens {
			c.MemLines += g.Issued()
		}
		for _, d := range n.DIMMs {
			c.DRAMAccesses += d.Intensity().Total()
			rowHits += d.RowHitRate() * float64(d.Served())
			served += float64(d.Served())
		}
		for i := 0; i < n.IC.NumChannels(); i++ {
			ch := n.IC.Channel(i)
			c.BusMemGrants += ch.Grants(bus.PriMem)
			io := ch.Grants(bus.PriIO)
			c.BusIOGrants += io
			ioWait += ch.MeanWaitUS(bus.PriIO) * float64(io)
			c.BusUtil += ch.Utilization()
			channels++
		}

		nv := n.NVDIMM
		m := nv.Metrics()
		nreq := m.Lifetime.N()
		c.NVDIMMRequests += uint64(nreq)
		nvLat += m.Lifetime.Mean() * float64(nreq)
		c.NVDIMMBypassedReads += nv.BypassedReads()
		c.NVDIMMStalledWrites += nv.StalledWrites()
		c.NVDIMMContentionUS += m.LifetimeContentionUS

		cs := nv.Cache().Stats()
		c.CacheHits += cs.Hits
		c.CacheMisses += cs.Misses

		ss := nv.Scheduler().Stats()
		c.SchedCompletedPersistent += ss.CompletedPersistent
		c.SchedCompletedMigrated += ss.CompletedMigrated
		c.SchedNPBInsertions += ss.NPBInsertions
		persistWait += ss.PersistentWaitUS * float64(ss.CompletedPersistent)
		migWait += ss.MigratedWaitUS * float64(ss.CompletedMigrated)

		fs := nv.FTL().Stats()
		c.FTLUserWrites += fs.UserWrites
		c.FTLGCRuns += fs.GCRuns
		c.FTLGCWrites += fs.GCWrites
		c.FTLErases += fs.Erases

		c.SSDRequests += uint64(n.SSD.Metrics().Lifetime.N())
		c.HDDRequests += uint64(n.HDD.Metrics().Lifetime.N())
		c.HDDSeeks += n.HDD.Seeks()
	}
	c.DRAMRowHitRate = ratio(rowHits, served)
	c.BusIOWaitUSMean = ratio(ioWait, float64(c.BusIOGrants))
	c.BusUtil = ratio(c.BusUtil, float64(channels))
	c.NVDIMMLatencyUSMean = ratio(nvLat, float64(c.NVDIMMRequests))
	c.SchedPersistentWaitUS = ratio(persistWait, float64(c.SchedCompletedPersistent))
	c.SchedMigratedWaitUS = ratio(migWait, float64(c.SchedCompletedMigrated))
	// (user + GC) / user writes, as FTL.WriteAmplification defines it.
	c.FTLWriteAmp = 1
	if c.FTLUserWrites > 0 {
		c.FTLWriteAmp = float64(c.FTLUserWrites+c.FTLGCWrites) / float64(c.FTLUserWrites)
	}

	c.Mgmt = sys.Manager.Stats()
	c.NetworkBytes = sys.Cluster.NetworkBytes()
	if s := sys.Sampler(); s != nil {
		c.TelemetrySamples = s.Series().Len()
	}
	if t := sys.Telemetry(); t != nil && t.Tail != nil {
		c.TailWindows = t.Tail.Len()
	}
	return c
}

// usefulMigrationFrac is (completed − ping-pongs) / started: the share of
// started migrations that completed and did not undo an earlier one.
func (c layerCounts) usefulMigrationFrac() float64 {
	s := c.Mgmt
	if s.MigrationsStarted == 0 {
		return 0
	}
	useful := float64(s.MigrationsCompleted) - float64(s.PingPongs)
	return useful / float64(s.MigrationsStarted)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest hashes a run's simulated results: the Report and the layer
// counts. Two runs of one seed must produce the same digest.
func digest(rep core.Report, c layerCounts) (string, error) {
	b, err := json.Marshal(struct {
		Report core.Report
		Counts layerCounts
	}{rep, c})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
