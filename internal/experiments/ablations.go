package experiments

import (
	"fmt"

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
	names := []string{"mcf", "lbm", "soplex", "gcc", "libq", "cc_twi"}
	out := make([]workloads.Workload, 0, len(names))
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	return out
}

// AblationIndexing compares the three spatial-indexing choices the paper
// walks through in Section 4.5: naive spatial indexing (NSI, nearly every
// line moves), bandwidth-aware indexing (BAI, half the lines invariant),
// and DICE's dynamic selection. NSI's cost shows up both in thrashing
// (like BAI) and in having no cheap fallback.
func ablateIndexCells(r *Runner) []Cell {
	return r.namedCells([]string{"base", "nsi", "bai", "dice"}, ablationWorkloads())
}

// AblationIndexing is the indexing ablation (beyond the paper):
// naive set-indexing (NSI) versus BAI versus full DICE, isolating
// how much of the win is index choice rather than compression.
func AblationIndexing(r *Runner) *Report {
	r.Prefetch(ablateIndexCells(r)...)
	rep := &Report{ID: "ablate-index", Title: "Indexing ablation: NSI vs BAI vs DICE",
		Columns: []string{"NSI", "BAI", "DICE"}}
	for _, w := range ablationWorkloads() {
		rep.AddRow(w.Name, w.Suite,
			r.Speedup("nsi", w),
			r.Speedup("bai", w),
			r.Speedup("dice", w))
	}
	rep.GroupGeoMeans()
	rep.Notes = append(rep.Notes,
		"paper Sec 4.5: NSI degrades incompressible workloads by as much as 63%")
	return rep
}

// diceWithAlg is the DICE configuration restricted to one compression
// algorithm (the Section 7.1 ablation).
func diceWithAlg(r *Runner, alg string) sim.Config {
	cfg := r.config("dice")
	cfg.CompressAlg = alg
	return cfg
}

func ablateCompressCells(r *Runner) []Cell {
	cells := r.namedCells([]string{"base", "dice"}, ablationWorkloads())
	for _, w := range ablationWorkloads() {
		for _, alg := range []string{"fpc", "bdi"} {
			cells = append(cells, Cell{
				Key: "dice-" + alg + "|" + w.Name, Cfg: diceWithAlg(r, alg), W: w,
			})
		}
	}
	return cells
}

// AblationCompressor re-runs DICE with FPC alone and BDI alone instead of
// the hybrid selector (Section 7.1 argues DICE is orthogonal to the
// compression algorithm; the hybrid should win but not by much on
// integer-heavy data where both algorithms overlap).
func AblationCompressor(r *Runner) *Report {
	r.Prefetch(ablateCompressCells(r)...)
	rep := &Report{ID: "ablate-compress", Title: "Compression-algorithm ablation under DICE",
		Columns: []string{"FPC-only", "BDI-only", "Hybrid"}}
	var fs, bs, hs []float64
	for _, w := range ablationWorkloads() {
		f := r.ablateOne("dice-fpc", diceWithAlg(r, "fpc"), w)
		bd := r.ablateOne("dice-bdi", diceWithAlg(r, "bdi"), w)
		h := r.Speedup("dice", w)
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

// ablateOne runs one custom configuration on one workload and returns
// its speedup over the uncompressed baseline.
func (r *Runner) ablateOne(key string, cfg sim.Config, w workloads.Workload) float64 {
	res := r.RunConfig(key+"|"+w.Name, cfg, w)
	return sim.Speedup(r.Run("base", w), res)
}

// mlpWindows is the AblationMLP sweep of the per-core MLP window.
var mlpWindows = []int{2, 6, 16}

// mlpCfg is a named configuration with its MLP window overridden.
func mlpCfg(r *Runner, name string, win int) sim.Config {
	cfg := r.config(name)
	cfg.MLPWindow = win
	return cfg
}

func ablateMLPCells(r *Runner) []Cell {
	var cells []Cell
	for _, w := range ablationWorkloads() {
		for _, win := range mlpWindows {
			for _, name := range []string{"base", "dice"} {
				cells = append(cells, Cell{
					Key: fmt.Sprintf("%s-mlp%d|%s", name, win, w.Name),
					Cfg: mlpCfg(r, name, win), W: w,
				})
			}
		}
	}
	return cells
}

// AblationMLP sweeps the per-core memory-level-parallelism window, the
// main free parameter of the core model (DESIGN.md decision 4). DICE's
// advantage should persist across the sweep — it relieves bandwidth, not
// latency, so more outstanding misses do not substitute for it.
func AblationMLP(r *Runner) *Report {
	r.Prefetch(ablateMLPCells(r)...)
	rep := &Report{ID: "ablate-mlp", Title: "Core MLP-window sensitivity of DICE's speedup",
		Columns: []string{"MLP=2", "MLP=6", "MLP=16"}}
	windows := mlpWindows
	sums := make([][]float64, len(windows))
	for _, w := range ablationWorkloads() {
		vals := make([]float64, len(windows))
		for i, win := range windows {
			base := r.RunConfig(fmt.Sprintf("base-mlp%d|%s", win, w.Name), mlpCfg(r, "base", win), w)
			dice := r.RunConfig(fmt.Sprintf("dice-mlp%d|%s", win, w.Name), mlpCfg(r, "dice", win), w)
			vals[i] = sim.Speedup(base, dice)
			sums[i] = append(sums[i], vals[i])
		}
		rep.AddRow(w.Name, w.Suite, vals...)
	}
	gm := make(map[string]float64, len(windows))
	for i, win := range windows {
		gm[fmt.Sprintf("MLP=%d", win)] = stats.GeoMean(sums[i])
	}
	rep.Rows = append(rep.Rows, Row{Name: "GMEAN", Values: gm})
	rep.Notes = append(rep.Notes,
		"DICE's benefit is bandwidth-side, so it should survive deeper MLP windows")
	return rep
}
