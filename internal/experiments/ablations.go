package experiments

import (
	"dice/internal/sim"
	"dice/internal/stats"
	"dice/internal/workloads"
)

// Ablation experiments: studies of the design choices DESIGN.md calls
// out, beyond the paper's own tables. They are registered alongside the
// paper experiments so dicebench and the benchmark harness can run them.

// ablationWorkloads is a representative slice covering the behavior
// classes: capacity-bound compressible (soplex), bandwidth-bound
// compressible (gcc), incompressible streaming (libq, lbm), pointer
// chasing (mcf), and one graph kernel (cc_twi). Full runs are available
// through the paper experiments; ablations trade coverage for speed.
func ablationWorkloads() []workloads.Workload {
	return named("mcf", "lbm", "soplex", "gcc", "libq", "cc_twi")
}

// AblationIndexing compares the three spatial-indexing choices the paper
// walks through in Section 4.5: naive spatial indexing (NSI, nearly every
// line moves), bandwidth-aware indexing (BAI, half the lines invariant),
// and DICE's dynamic selection. NSI's cost shows up both in thrashing
// (like BAI) and in having no cheap fallback.
func ablateIndexCells() []CellSpec {
	return cells(ablationWorkloads(), base, nsi, bai, dice)
}

// AblationIndexing is the indexing ablation (beyond the paper):
// naive set-indexing (NSI) versus BAI versus full DICE, isolating
// how much of the win is index choice rather than compression.
func AblationIndexing(v Results) *Report {
	rep := &Report{ID: "ablate-index", Title: "Indexing ablation: NSI vs BAI vs DICE",
		Columns: []string{"NSI", "BAI", "DICE"}}
	for _, w := range ablationWorkloads() {
		rep.AddRow(w.Name, w.Suite,
			v.Speedup(nsi, w),
			v.Speedup(bai, w),
			v.Speedup(dice, w))
	}
	rep.GroupGeoMeans()
	rep.Notes = append(rep.Notes,
		"paper Sec 4.5: NSI degrades incompressible workloads by as much as 63%")
	return rep
}

// diceFPC and diceBDI are DICE restricted to one compression
// algorithm (the Section 7.1 ablation).
var (
	diceFPC = CellSpec{Policy: "dice", Compress: "fpc"}
	diceBDI = CellSpec{Policy: "dice", Compress: "bdi"}
)

func ablateCompressCells() []CellSpec {
	return append(cells(ablationWorkloads(), base, dice), cells(ablationWorkloads(), diceFPC, diceBDI)...)
}

// AblationCompressor re-runs DICE with FPC alone and BDI alone instead of
// the hybrid selector (Section 7.1 argues DICE is orthogonal to the
// compression algorithm; the hybrid should win but not by much on
// integer-heavy data where both algorithms overlap).
func AblationCompressor(v Results) *Report {
	rep := &Report{ID: "ablate-compress", Title: "Compression-algorithm ablation under DICE",
		Columns: []string{"FPC-only", "BDI-only", "Hybrid"}}
	var fs, bs, hs []float64
	for _, w := range ablationWorkloads() {
		f := v.Speedup(diceFPC, w)
		bd := v.Speedup(diceBDI, w)
		h := v.Speedup(dice, w)
		rep.AddRow(w.Name, w.Suite, f, bd, h)
		fs, bs, hs = append(fs, f), append(bs, bd), append(hs, h)
	}
	rep.Rows = append(rep.Rows, Row{Name: "GMEAN", Values: map[string]float64{
		"FPC-only": stats.GeoMean(fs), "BDI-only": stats.GeoMean(bs), "Hybrid": stats.GeoMean(hs),
	}})
	rep.Notes = append(rep.Notes,
		"paper Sec 7.1: DICE works with any low-latency compressor; hybrid is best")
	return rep
}

// mlpDesigns is the AblationMLP sweep of the per-core MLP window:
// DICE with 2, 6 and 16 outstanding references, each against the
// baseline with the same window. 6 is the simulator default, so that
// point is the plain dice and base cells other experiments run too.
var mlpDesigns = []CellSpec{{Policy: "dice", MLP: 2}, dice, {Policy: "dice", MLP: 16}}

func ablateMLPCells() []CellSpec {
	var designs []CellSpec
	for _, d := range mlpDesigns {
		designs = append(designs, d.Baseline(), d)
	}
	return cells(ablationWorkloads(), designs...)
}

// AblationMLP sweeps the per-core memory-level-parallelism window, the
// main free parameter of the core model (DESIGN.md decision 4). DICE's
// advantage should persist across the sweep — it relieves bandwidth, not
// latency, so more outstanding misses do not substitute for it.
func AblationMLP(v Results) *Report {
	rep := &Report{ID: "ablate-mlp", Title: "Core MLP-window sensitivity of DICE's speedup",
		Columns: []string{"MLP=2", "MLP=6", "MLP=16"}}
	sums := make([][]float64, len(mlpDesigns))
	for _, w := range ablationWorkloads() {
		vals := make([]float64, len(mlpDesigns))
		for i, d := range mlpDesigns {
			vals[i] = sim.Speedup(v.Get(d.Baseline(), w), v.Get(d, w))
			sums[i] = append(sums[i], vals[i])
		}
		rep.AddRow(w.Name, w.Suite, vals...)
	}
	gm := map[string]float64{}
	for i, col := range rep.Columns {
		gm[col] = stats.GeoMean(sums[i])
	}
	rep.Rows = append(rep.Rows, Row{Name: "GMEAN", Values: gm})
	rep.Notes = append(rep.Notes,
		"DICE's benefit is bandwidth-side, so it should survive deeper MLP windows")
	return rep
}
