// Concurrent simulation scheduler. An experiment's work is a list of
// independent, deterministic cells; RunCells fans a list out across a
// bounded worker pool and RunAllCtx submits the union of several
// experiments' cells up front, so the report functions afterwards only
// read results. Report bytes are identical for every worker count:
// assembly order is fixed, and sim.Run is a pure function of its cell.
package experiments

import (
	"context"
	"fmt"

	"dice/internal/obs"
	"dice/internal/parallel"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// RunCells is the one place a CellSpec becomes a simulation: catalog
// experiments, daemon batch jobs and in-process sweeps all run their
// cells here. The cells fan out across the worker pool in order (with
// Workers == 1 they run serially in that order, the reference
// schedule), memoized by Key, so duplicates — within one call or with
// concurrent callers — simulate once. A zero Refs takes the runner's
// RefsPerCore. done, when non-nil, receives each cell's result as it
// completes, from worker goroutines (possibly concurrently, so it must
// be safe for concurrent use); duplicates each get their own call.
//
// The returned map holds the result of every cell that completed,
// keyed by Key. An invalid cell fails the whole call before anything
// runs. When ctx is cancelled no further cells start, in-flight ones
// finish, and the error is ctx's; the results already memoized make a
// re-run of the rest resume where this one stopped. A panicking
// simulation cancels the remaining queue and re-panics here.
func (r *Runner) RunCells(ctx context.Context, specs []CellSpec, done func(i int, res sim.Result)) (map[string]sim.Result, error) {
	jobs := make([]cellJob, len(specs))
	for i, c := range specs {
		cfg, w, err := c.resolve(r.RefsPerCore)
		if err != nil {
			return nil, fmt.Errorf("experiments: cell %d (%s): %w", i, c.Key(), err)
		}
		jobs[i] = cellJob{c, c.Key(), cfg, w}
	}
	// Warm the artifact cache for every distinct (workload, effective
	// scale) before the fan-out. Dozens of cells share each workload, so
	// without warming the first worker to reach a workload would build
	// its graphs while the cache's singleflight blocks every other worker
	// needing the same entry; warming spreads the distinct builds across
	// the pool instead.
	type artifact struct {
		name  string
		scale uint
	}
	seen := map[artifact]bool{}
	var warm []cellJob
	for _, j := range jobs {
		if a := (artifact{j.w.Name, j.cfg.EffectiveScale()}); !seen[a] {
			seen[a] = true
			warm = append(warm, j)
		}
	}
	parallel.ForEachCtx(ctx, r.Workers, len(warm), func(i int) {
		warm[i].w.Warm(warm[i].cfg.EffectiveScale())
	})

	results := make([]sim.Result, len(jobs))
	ran := make([]bool, len(jobs))
	parallel.ForEachCtx(ctx, r.Workers, len(jobs), func(i int) {
		results[i] = r.run(jobs[i])
		ran[i] = true
		if done != nil {
			done(i, results[i])
		}
	})
	out := make(map[string]sim.Result, len(jobs))
	for i, j := range jobs {
		if ran[i] {
			out[j.key] = results[i]
		}
	}
	return out, ctx.Err()
}

// RunAllCtx regenerates the given experiments under a job's run-wide
// settings (job's Scale, BER, FaultSeed and FaultPolicy; see
// CellSpec.withJob). It rewrites every declared cell with job, submits
// the union to RunCells (deduplicated by key, preserving first-seen
// order), then renders each report serially in the order given,
// stamping it with its experiment's ID — so the output is
// byte-identical to a fully serial run while the simulations use every
// worker. When ctx is cancelled it returns the reports already rendered
// alongside ctx's error; a cancel during the simulations renders none.
func RunAllCtx(ctx context.Context, r *Runner, exps []Experiment, job CellSpec) ([]*Report, error) {
	var cells []CellSpec
	seen := map[string]bool{}
	for _, e := range exps {
		for _, c := range e.Cells {
			c = c.withJob(job)
			if k := c.Key(); !seen[k] {
				seen[k] = true
				cells = append(cells, c)
			}
		}
	}
	all, err := r.RunCells(ctx, cells, nil)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, 0, len(exps))
	for _, e := range exps {
		if err := ctx.Err(); err != nil {
			return reports, err
		}
		v := Results{exp: e.ID, job: job, res: make(map[string]sim.Result, len(e.Cells)), r: r}
		for _, c := range e.Cells {
			k := c.withJob(job).Key()
			v.res[k] = all[k]
		}
		rep := e.Report(v)
		rep.ID = e.ID
		reports = append(reports, rep)
	}
	return reports, nil
}

// Results is what a report reads: the results of its experiment's
// declared cells, looked up by CellSpec.Key after the job rewrite.
type Results struct {
	exp string
	job CellSpec
	res map[string]sim.Result
	r   *Runner
}

// cell is design d on workload w as the job ran it. It panics, naming
// the experiment and the key, unless the experiment declared the cell:
// a report can read only what its Cells list runs.
func (v Results) cell(d CellSpec, w workloads.Workload) (CellSpec, sim.Result) {
	d.Workload = w.Name
	d = d.withJob(v.job)
	res, ok := v.res[d.Key()]
	if !ok {
		panic(fmt.Sprintf("experiments: %s reads undeclared cell %s", v.exp, d.Key()))
	}
	return d, res
}

// rerun simulates declared design d on w once more, outside the memo,
// with ob attached.
func (v Results) rerun(d CellSpec, w workloads.Workload, ob *obs.Observer) sim.Result {
	c, _ := v.cell(d, w)
	cfg, wl, err := c.resolve(v.r.RefsPerCore)
	if err != nil {
		panic(err) // the cell already ran, so it resolves
	}
	res, err := v.r.runSim(cfg, wl, ob)
	if err != nil {
		panic(err)
	}
	return res
}

// Get returns the result of design d on workload w.
func (v Results) Get(d CellSpec, w workloads.Workload) sim.Result {
	_, res := v.cell(d, w)
	return res
}
