// Fault sweep: how gracefully does each cache design degrade as the
// stacked DRAM's raw bit-error rate rises? Compression concentrates
// many lines behind one set of ECC words, so a detected-uncorrectable
// error costs a compressed design up to MaxLinesPerSet resident lines
// where the uncompressed Alloy baseline loses one — the sweep makes
// that reliability/performance trade-off measurable.
package experiments

import (
	"fmt"

	"dice/internal/sim"
	"dice/internal/stats"
	"dice/internal/workloads"
)

// faultSweepBERs are the swept raw bit-error rates: clean, a moderate
// rate where ECC corrects almost everything, and a harsh rate where
// detected-uncorrectable frames become routine.
var faultSweepBERs = []float64{0, 3e-4, 3e-3}

// faultSweepDesigns are the designs compared: the uncompressed Alloy
// baseline versus the two compressed designs.
var faultSweepDesigns = []CellSpec{base, tsi, dice}

// faultSweepSeed fixes the fault stream so the sweep is reproducible.
const faultSweepSeed = 0xD1CE

// faultSweepWorkloads keeps the sweep affordable: one compressible
// winner, one broad mix, one incompressible workload.
func faultSweepWorkloads() []workloads.Workload {
	return named("gcc", "soplex", "libq")
}

// faultDesign is design d at one swept BER. BER zero still carries the
// fault policy, so the job-wide fault settings never reach a sweep
// point; sim.Run short-circuits injection entirely at BER 0.
func faultDesign(d CellSpec, ber float64) CellSpec {
	d.BER, d.FaultSeed, d.FaultPolicy = ber, faultSweepSeed, "ecc+quarantine"
	return d
}

// faultSweepPoints are every compared design at every swept BER.
func faultSweepPoints() []CellSpec {
	var designs []CellSpec
	for _, d := range faultSweepDesigns {
		for _, ber := range faultSweepBERs {
			designs = append(designs, faultDesign(d, ber))
		}
	}
	return designs
}

// FaultSweep tabulates weighted speedup (vs the clean uncompressed
// baseline) and L4 hit rate per design as BER rises. Every design's
// ber=0 row is its fault-free reference, so reading down a column shows
// that design's degradation; comparing columns shows compression's
// fault amplification.
func FaultSweep(v Results) *Report {
	rep := &Report{Title: "Degradation under injected bit errors (ecc+quarantine)",
		Columns: []string{"base", "baseHR", "tsi", "tsiHR", "dice", "diceHR"}}

	wls := faultSweepWorkloads()
	run := func(d CellSpec, ber float64, w workloads.Workload) sim.Result {
		return v.Get(faultDesign(d, ber), w)
	}

	for _, ber := range faultSweepBERs {
		var vals []float64
		for _, d := range faultSweepDesigns {
			var sp, hr []float64
			for _, w := range wls {
				clean := run(base, 0, w)
				faulty := run(d, ber, w)
				sp = append(sp, sim.Speedup(clean, faulty))
				hr = append(hr, faulty.L4.HitRate())
			}
			vals = append(vals, stats.GeoMean(sp), stats.Mean(hr))
		}
		rep.AddRow(fmt.Sprintf("ber=%g", ber), "", vals...)
	}

	// Reliability counters at the harshest point, summed over workloads.
	hi := faultSweepBERs[len(faultSweepBERs)-1]
	var det, ref, flushed, quar uint64
	var silentBase uint64
	for _, w := range wls {
		d := run(dice, hi, w)
		det += d.L4.FaultDetectedFrames
		ref += d.L4.FaultRefetches
		flushed += d.L4.FaultFlushedLines
		quar += uint64(d.QuarantinedSets)
		silentBase += run(base, hi, w).L4.FaultSilentHits
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("dice at ber=%g: detected=%d refetches=%d flushed-lines=%d quarantined-sets=%d",
			hi, det, ref, flushed, quar),
		fmt.Sprintf("base at ber=%g serves %d silently corrupt hits (raw lines carry no checksum)",
			hi, silentBase),
		"compressed frames amplify faults: one detected error flushes a whole set (up to 28 lines) vs 1 line on Alloy")
	return rep
}
