// Concurrent simulation scheduler. An experiment's work is a
// config×workload matrix of independent, deterministic sim.Run calls;
// Prefetch fans a matrix out across a bounded worker pool and RunAll
// submits the union of several experiments' matrices up front, so the
// serial report-assembly loops afterwards find every result memoized.
// Report bytes are identical for every worker count: assembly order is
// fixed, and sim.Run is a pure function of (config, workload).
package experiments

import (
	"context"

	"dice/internal/parallel"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// Cell is one (configuration, workload) simulation in an experiment's
// matrix, memoized under Key (see Runner.RunConfig for the key scheme).
type Cell struct {
	// Key is the memoization key: cells sharing it simulate once.
	Key string
	// Cfg is the simulator configuration to run.
	Cfg sim.Config
	// W is the workload to drive it with.
	W workloads.Workload
}

// namedCells builds the matrix of named configurations × workloads.
func (r *Runner) namedCells(cfgNames []string, wls []workloads.Workload) []Cell {
	cells := make([]Cell, 0, len(cfgNames)*len(wls))
	for _, w := range wls {
		for _, name := range cfgNames {
			cells = append(cells, Cell{Key: name + "|" + w.Name, Cfg: r.config(name), W: w})
		}
	}
	return cells
}

// Prefetch simulates every cell across the runner's worker pool and
// returns once all results are memoized. Cells sharing a key — within
// one call or with concurrent callers — simulate once (singleflight);
// the duplicates block until the first finishes. With Workers == 1 the
// cells run serially in submission order, the reference schedule. A
// panicking simulation cancels the remaining queue and re-panics here.
func (r *Runner) Prefetch(cells ...Cell) {
	r.PrefetchCtx(context.Background(), cells...)
}

// PrefetchCtx is Prefetch with cooperative cancellation: once ctx is
// done no further cells start; in-flight simulations complete (their
// results stay memoized, so a later retry resumes where this left off).
func (r *Runner) PrefetchCtx(ctx context.Context, cells ...Cell) {
	r.warmArtifacts(ctx, cells)
	parallel.ForEachCtx(ctx, r.Workers, len(cells), func(i int) {
		r.RunConfig(cells[i].Key, cells[i].Cfg, cells[i].W)
	})
}

// ForEachCellCtx simulates every cell across the worker pool and
// invokes done(i, result) as each cell i completes — the hook the
// sweep engine uses to checkpoint results the moment they exist
// instead of after the whole matrix. done may be nil; when non-nil it
// is called from worker goroutines (possibly concurrently) and must
// be safe for concurrent use. Duplicate keys simulate once; each
// duplicate still gets its own done call. Returns ctx.Err() if the
// fan-out was cut short.
func (r *Runner) ForEachCellCtx(ctx context.Context, cells []Cell, done func(i int, res sim.Result)) error {
	r.warmArtifacts(ctx, cells)
	parallel.ForEachCtx(ctx, r.Workers, len(cells), func(i int) {
		res := r.RunConfig(cells[i].Key, cells[i].Cfg, cells[i].W)
		if done != nil {
			done(i, res)
		}
	})
	return ctx.Err()
}

// Peek returns the memoized result for key without simulating: ok is
// false when the key was never requested or its simulation has not
// finished. It never blocks, so collection loops can skim a partially
// cancelled fan-out for the cells that did complete.
func (r *Runner) Peek(key string) (res sim.Result, ok bool) {
	r.mu.Lock()
	f := r.cache[key]
	r.mu.Unlock()
	if f == nil {
		return sim.Result{}, false
	}
	select {
	case <-f.done:
		if f.panicked != nil {
			return sim.Result{}, false
		}
		return f.res, true
	default:
		return sim.Result{}, false
	}
}

// warmCell is one distinct (workload, scale) build a prefetch pays for
// up front.
type warmCell struct {
	w     workloads.Workload
	scale uint
}

// warmArtifacts builds the artifact cache entry for every distinct
// (workload, effective scale) in cells before the simulation fan-out.
// Dozens of configs share each workload, so without warming the first
// worker to reach a workload would build its graphs while the cache's
// singleflight blocks every other worker needing the same entry —
// warming moves that serialization ahead of the fan-out and spreads the
// distinct builds across the pool instead.
func (r *Runner) warmArtifacts(ctx context.Context, cells []Cell) {
	var warm []warmCell
	seen := map[artifactID]bool{}
	for _, c := range cells {
		id := artifactID{c.W.Name, c.Cfg.EffectiveScale()}
		if !seen[id] {
			seen[id] = true
			warm = append(warm, warmCell{c.W, id.scale})
		}
	}
	parallel.ForEachCtx(ctx, r.Workers, len(warm), func(i int) {
		warm[i].w.Warm(warm[i].scale)
	})
}

// artifactID mirrors the artifact cache's key for dedup during warming.
type artifactID struct {
	name  string
	scale uint
}

// RunAll regenerates the given experiments. It submits the union of
// their simulation matrices to the worker pool first (deduplicated by
// key, preserving first-seen order), then assembles each report
// serially in the order given — so the printed output is byte-identical
// to a fully serial run while the simulations use every worker.
func RunAll(r *Runner, exps []Experiment) []*Report {
	reports, _ := RunAllCtx(context.Background(), r, exps)
	return reports
}

// RunAllCtx is RunAll with cooperative cancellation. When ctx is
// cancelled, queued simulations are skipped (in-flight ones complete)
// and the reports already assembled are returned alongside ctx's error,
// so the caller can print a partial run. An experiment whose assembly
// has started finishes — any of its cells the prefetch skipped are
// simulated synchronously — so a cancelled report is never half-built.
func RunAllCtx(ctx context.Context, r *Runner, exps []Experiment) ([]*Report, error) {
	var cells []Cell
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Cells == nil {
			continue
		}
		for _, c := range e.Cells(r) {
			if !seen[c.Key] {
				seen[c.Key] = true
				cells = append(cells, c)
			}
		}
	}
	r.PrefetchCtx(ctx, cells...)

	reports := make([]*Report, 0, len(exps))
	for _, e := range exps {
		if err := ctx.Err(); err != nil {
			return reports, err
		}
		reports = append(reports, e.Run(r))
	}
	return reports, nil
}
