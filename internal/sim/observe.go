// Epoch-metrics adaptation: turns the machine's cumulative component
// statistics into per-epoch obs.Snapshot deltas. Everything here is
// read-only with respect to the simulation — the tracker copies stats,
// computes differences against its own previous copies, and hands each
// snapshot to the recorder, whose sink takes it. It never feeds
// anything back, which is what keeps results byte-identical with
// recording on or off.
package sim

import (
	"dice/internal/dcache"
	"dice/internal/dram"
	"dice/internal/fault"
	"dice/internal/obs"
)

// epochCums holds the cumulative counters as of the previous epoch
// boundary, so the tracker can emit deltas.
type epochCums struct {
	refs   []int
	clocks []uint64
	l4     dcache.Stats
	hbm    dram.Stats
	ddr    dram.Stats
	fault  fault.Stats
	cipPre uint64
	cipFlp uint64
}

// epochTracker samples one machine into one recorder.
type epochTracker struct {
	rec  *obs.Recorder
	m    *machine
	fm   *fault.Model
	cs   []*core
	prev epochCums
}

// newEpochTracker builds a tracker over the assembled machine.
func newEpochTracker(rec *obs.Recorder, m *machine, fm *fault.Model, cs []*core) *epochTracker {
	et := &epochTracker{rec: rec, m: m, fm: fm, cs: cs}
	et.prev.refs = make([]int, len(cs))
	et.prev.clocks = make([]uint64, len(cs))
	return et
}

// du returns cur-prev for cumulative counters, treating a counter that
// shrank (the warm-boundary statistics reset) as restarted from zero.
func du(cur, prev uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// ratio returns num/den, or 0 when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// record emits one snapshot at the recorder's current boundary and
// rolls the cumulative baselines forward.
func (et *epochTracker) record() {
	boundary := et.rec.Boundary()
	m := et.m

	l4 := m.l4.Stats()
	hbm := m.hbm.Stats()
	ddr := m.ddr.Stats()
	var fs fault.Stats
	if et.fm != nil {
		fs = et.fm.Stats()
	}
	cip := m.l4.CIP()

	var s obs.Snapshot

	// Per-core and aggregate IPC over the epoch.
	s.CoreIPC = make([]float64, len(et.cs))
	var refs uint64
	var instr float64
	for i, c := range et.cs {
		dRefs := c.refsDone - et.prev.refs[i]
		dCyc := c.clock - et.prev.clocks[i]
		dInstr := float64(float64(dRefs) * c.instrPerRef) // rounded: never fused into instr
		s.CoreIPC[i] = ratio(dInstr, float64(dCyc))
		refs += uint64(dRefs)
		instr += dInstr
		et.prev.refs[i] = c.refsDone
		et.prev.clocks[i] = c.clock
	}
	s.Refs = refs
	s.IPC = instr / float64(et.rec.EpochCycles())

	// L4 cache.
	dReads := du(l4.Reads, et.prev.l4.Reads)
	s.L4Reads = dReads
	s.L4HitRate = ratio(float64(du(l4.ReadHits, et.prev.l4.ReadHits)), float64(dReads))
	s.InstallBAI = du(l4.InstallBAI, et.prev.l4.InstallBAI)
	s.InstallTSI = du(l4.InstallTSI, et.prev.l4.InstallTSI)
	s.InstallInvariant = du(l4.InstallInvariant, et.prev.l4.InstallInvariant)
	s.EffCapacity = m.l4.EffectiveCapacity()

	// DRAM devices: queue depth at the boundary, utilization and bytes
	// per access over the epoch.
	epoch := float64(et.rec.EpochCycles())
	s.L4Queue = uint64(m.hbm.InFlightTotal(boundary))
	s.L4BusUtil = ratio(float64(du(hbm.BusBusyCycles, et.prev.hbm.BusBusyCycles)),
		epoch*float64(m.hbm.Config().Channels))
	dBytes := du(hbm.BytesRead+hbm.BytesWritten, et.prev.hbm.BytesRead+et.prev.hbm.BytesWritten)
	dAcc := du(hbm.Accesses(), et.prev.hbm.Accesses())
	s.L4BytesPerAccess = ratio(float64(dBytes), float64(dAcc))
	s.DDRReads = du(ddr.Reads, et.prev.ddr.Reads)
	s.DDRWrites = du(ddr.Writes, et.prev.ddr.Writes)
	s.DDRQueue = uint64(m.ddr.InFlightTotal(boundary))
	s.DDRBusUtil = ratio(float64(du(ddr.BusBusyCycles, et.prev.ddr.BusBusyCycles)),
		epoch*float64(m.ddr.Config().Channels))

	// Index predictor: policy bias gauge plus per-epoch activity.
	s.CIPBAIFrac = cip.BAIFraction()
	if s.CIPBAIFrac >= 0.5 {
		s.CIPPolicyBAI = 1
	}
	s.CIPAccuracy = cip.Accuracy()
	s.CIPPredictions = du(cip.Predictions(), et.prev.cipPre)
	s.CIPFlips = du(cip.Flips(), et.prev.cipFlp)

	// Fault injection (all zero when injection is off).
	s.FaultCorrected = du(fs.Corrected, et.prev.fault.Corrected)
	s.FaultDetected = du(fs.Detected, et.prev.fault.Detected)
	s.FaultSilent = du(fs.Silent, et.prev.fault.Silent)
	s.FaultRefetches = du(l4.FaultRefetches, et.prev.l4.FaultRefetches)
	s.QuarantinedSets = uint64(m.l4.QuarantineCount())

	et.prev.l4, et.prev.hbm, et.prev.ddr, et.prev.fault = l4, hbm, ddr, fs
	et.prev.cipPre, et.prev.cipFlp = cip.Predictions(), cip.Flips()

	et.rec.Record(s)
}
