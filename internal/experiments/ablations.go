package experiments

import (
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

// ablateIndex compares the three spatial-indexing choices the paper
// walks through in Section 4.5: naive spatial indexing (NSI, nearly
// every line moves), bandwidth-aware indexing (BAI, half the lines
// invariant), and DICE's dynamic selection — how much of the win is
// index choice rather than compression. NSI's cost shows up both in
// thrashing (like BAI) and in having no cheap fallback.
var ablateIndex = speedup{id: "ablate-index", listing: "Ablation: NSI vs BAI vs DICE indexing",
	title: "Indexing ablation: NSI vs BAI vs DICE", wls: ablationWorkloads(),
	cols: []column{col("NSI", nsi), col("BAI", bai), col("DICE", dice)},
	note: "paper Sec 4.5: NSI degrades incompressible workloads by as much as 63%"}

// ablateCompress re-runs DICE with FPC alone and BDI alone instead of
// the hybrid selector (Section 7.1 argues DICE is orthogonal to the
// compression algorithm; the hybrid should win but not by much on
// integer-heavy data where both algorithms overlap).
var ablateCompress = speedup{id: "ablate-compress", listing: "Ablation: FPC-only vs BDI-only vs hybrid",
	title: "Compression-algorithm ablation under DICE", wls: ablationWorkloads(),
	cols: []column{
		col("FPC-only", CellSpec{Policy: "dice", Compress: "fpc"}),
		col("BDI-only", CellSpec{Policy: "dice", Compress: "bdi"}),
		col("Hybrid", dice),
	},
	total: "GMEAN", note: "paper Sec 7.1: DICE works with any low-latency compressor; hybrid is best"}

// ablateMLP sweeps the per-core memory-level-parallelism window, the
// main free parameter of the core model (DESIGN.md decision 4): DICE
// with 2, 6 and 16 outstanding references, each against the baseline
// with the same window. 6 is the simulator default, so that point is
// the plain dice and base cells other experiments run too. DICE's
// advantage should persist across the sweep — it relieves bandwidth,
// not latency, so more outstanding misses do not substitute for it.
var ablateMLP = speedup{id: "ablate-mlp", listing: "Ablation: core MLP-window sensitivity",
	title: "Core MLP-window sensitivity of DICE's speedup", wls: ablationWorkloads(),
	cols: []column{
		own("MLP=2", CellSpec{Policy: "dice", MLP: 2}),
		own("MLP=6", dice),
		own("MLP=16", CellSpec{Policy: "dice", MLP: 16}),
	},
	total: "GMEAN", note: "DICE's benefit is bandwidth-side, so it should survive deeper MLP windows"}
