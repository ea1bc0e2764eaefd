// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 1f, 4, 7, 10-15; Tables 4-8; the CIP accuracy sweep
// of Section 5.3). Each experiment declares its simulations as a list of
// CellSpecs and renders a Report from their results; a shared Runner
// memoizes simulations by CellSpec.Key, so the baseline runs that many
// experiments normalize against are executed once.
package experiments

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dice/internal/obs"
	"dice/internal/parallel"
	"dice/internal/sim"
	"dice/internal/stats"
	"dice/internal/workloads"
)

// Runner executes and memoizes simulations. All methods are safe for
// concurrent use: memoization is singleflight, so a cell is simulated
// exactly once no matter how many experiments request it concurrently,
// and every later caller blocks until that one result is ready.
type Runner struct {
	// RefsPerCore is the measured reference count for cells that leave
	// Refs at 0 (0 = auto). Tests use small values; the CLI larger ones.
	RefsPerCore int
	// Verbose prints progress lines as runs complete.
	Verbose bool
	// Workers bounds the simulations RunCells executes concurrently
	// (0 = one per CPU). Workers == 1 is the bit-exact serial reference
	// schedule; because sim.Run is deterministic per cell, every worker
	// count produces byte-identical results — the determinism tests
	// enforce this.
	Workers int

	// Observe, when non-nil, is called once per executed simulation
	// with its cell's Key; the observer it returns (nil = none) watches
	// that simulation. Memoized recalls and singleflight waits do not
	// call it, so each key is observed at most once. Callers build the
	// recorder or tracer they need: dicebench keeps per-key recorders,
	// the daemon's emit stream events, dicesim traces one cell. It runs
	// on simulation worker goroutines, possibly several concurrently,
	// so it — and any callback its observer makes — must be safe for
	// concurrent use. Observation never changes results.
	Observe func(key string) *obs.Observer

	cache  parallel.Memo[string, sim.Result]
	sims   atomic.Int64
	cycles atomic.Uint64

	logOnce sync.Once
	log     *parallel.Logger

	// simulate runs one simulation; nil means sim.RunObserved. The
	// cross-core tests set it to sim.RunReferenceObserved to render whole
	// reports on the cycle-stepped reference core.
	simulate func(sim.Config, workloads.Workload, *obs.Observer) (sim.Result, error)

	// testHookSimDone, when non-nil, runs after every executed
	// simulation with its cell's Key. Test instrumentation only:
	// the cancellation-latency tests use it to cancel a context at a
	// precise point between cells.
	testHookSimDone func(key string)
}

// NewRunner returns a Runner with the given per-core reference budget.
func NewRunner(refsPerCore int) *Runner {
	return &Runner{RefsPerCore: refsPerCore}
}

// runSim executes one simulation on the runner's core.
func (r *Runner) runSim(cfg sim.Config, w workloads.Workload, ob *obs.Observer) (sim.Result, error) {
	if r.simulate != nil {
		return r.simulate(cfg, w, ob)
	}
	return sim.RunObserved(cfg, w, ob)
}

// Sims reports how many simulations actually executed (memoized recalls
// and singleflight waits excluded).
func (r *Runner) Sims() int64 { return r.sims.Load() }

// TotalCycles reports the simulated cycles summed over every executed
// simulation — the denominator for allocs-per-simulated-tick self-stats.
func (r *Runner) TotalCycles() uint64 { return r.cycles.Load() }

// logf emits one line-atomic progress message when Verbose is set.
func (r *Runner) logf(format string, args ...any) {
	if !r.Verbose {
		return
	}
	r.logOnce.Do(func() { r.log = parallel.NewLogger(os.Stdout) })
	r.log.Printf(format, args...)
}

// cellJob is one cell resolved for simulation.
type cellJob struct {
	spec CellSpec
	key  string
	cfg  sim.Config
	w    workloads.Workload
}

// run executes (or recalls) one resolved cell, memoized under its key.
// Concurrent calls with the same key simulate exactly once: the first
// caller runs the simulation while the rest block until the result is
// ready. A panicking simulation is re-panicked in every waiter, so a
// pool worker failure propagates instead of deadlocking the queue.
func (r *Runner) run(j cellJob) sim.Result {
	res, _ := r.cache.Do(j.key, func() sim.Result { return r.simulateCell(j) })
	return res
}

// simulateCell runs one cell's simulation under the observer Observe
// returns for its key.
func (r *Runner) simulateCell(j cellJob) sim.Result {
	var ob *obs.Observer
	if r.Observe != nil {
		ob = r.Observe(j.key)
	}
	res, err := r.runSim(j.cfg, j.w, ob)
	if err != nil {
		// RunCells validated the cell, so a failure here is a programming
		// error; panicking keeps the singleflight propagation semantics
		// (every waiter re-panics).
		panic(err)
	}
	r.sims.Add(1)
	r.cycles.Add(res.Cycles)
	if r.testHookSimDone != nil {
		r.testHookSimDone(j.key)
	}
	r.logf("  ran %-23s L4hit=%.2f L3hit=%.2f\n",
		j.spec.Label(), res.L4.HitRate(), res.L3.HitRate())
	return res
}

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment's catalog identifier (fig10, table4, ...),
	// stamped by RunAllCtx.
	ID string
	// Title is the human-readable heading the renderers print.
	Title string
	// Columns lists the value columns, in print order.
	Columns []string
	// Rows holds the result lines, in print order.
	Rows []Row
	// Notes carries the paper-vs-measured commentary.
	Notes []string
}

// Row is one labeled result line.
type Row struct {
	// Name labels the row (usually a workload or config name).
	Name string
	// Suite is the workload suite the row belongs to.
	Suite workloads.Suite
	// Values maps column name to the measured value.
	Values map[string]float64
}

// Get returns a row value (0 when missing).
func (row Row) Get(col string) float64 { return row.Values[col] }

// AddRow appends a row built from parallel column values. Passing more
// values than the report has columns is a programmer error (the extras
// would silently vanish from the rendered table) and panics; passing
// fewer is allowed — missing columns read as zero.
func (rep *Report) AddRow(name string, suite workloads.Suite, vals ...float64) {
	if len(vals) > len(rep.Columns) {
		panic(fmt.Sprintf("experiments: AddRow(%q): %d values for %d columns",
			name, len(vals), len(rep.Columns)))
	}
	row := Row{Name: name, Suite: suite, Values: map[string]float64{}}
	for i, v := range vals {
		row.Values[rep.Columns[i]] = v
	}
	rep.Rows = append(rep.Rows, row)
}

// GroupGeoMeans appends the paper's aggregation rows — RATE, MIX, GAP and
// ALL26 geometric means — computed over the existing rows.
func (rep *Report) GroupGeoMeans() {
	groups := []struct {
		label string
		match func(Row) bool
	}{
		{"RATE", func(r Row) bool { return r.Suite == workloads.SuiteRate }},
		{"MIX", func(r Row) bool { return r.Suite == workloads.SuiteMix }},
		{"GAP", func(r Row) bool { return r.Suite == workloads.SuiteGAP }},
		{"ALL26", func(r Row) bool { return r.Suite != "" }},
	}
	base := make([]Row, len(rep.Rows))
	copy(base, rep.Rows)
	for _, g := range groups {
		vals := map[string]float64{}
		for _, col := range rep.Columns {
			var xs []float64
			for _, row := range base {
				if g.match(row) {
					xs = append(xs, row.Get(col))
				}
			}
			if len(xs) > 0 {
				vals[col] = stats.GeoMean(xs)
			}
		}
		if len(vals) > 0 {
			rep.Rows = append(rep.Rows, Row{Name: g.label, Values: vals})
		}
	}
}

// String renders the report as an aligned text table.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", rep.ID, rep.Title)
	nameW := 10
	for _, row := range rep.Rows {
		if len(row.Name) > nameW {
			nameW = len(row.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s", nameW+2, "workload")
	for _, c := range rep.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, row := range rep.Rows {
		fmt.Fprintf(&b, "%-*s", nameW+2, row.Name)
		for _, c := range rep.Columns {
			fmt.Fprintf(&b, "%12.3f", row.Get(c))
		}
		b.WriteByte('\n')
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one regenerable table/figure: the cells it simulates
// and the report it renders from their results.
type Experiment struct {
	// ID is the catalog identifier (-run selector in cmd/dicebench).
	ID string
	// Title is the one-line description shown in listings.
	Title string
	// Cells declares every simulation the report reads, in schedule
	// order (workload-major); fig4 runs none.
	Cells []CellSpec
	// Report renders the report from the declared cells' results.
	Report func(Results) *Report
}

// All returns every experiment in paper order.
func All() []Experiment {
	all26 := workloads.All26()
	return []Experiment{
		fig01.experiment(),
		{"fig4", "Fraction of compressible lines (Fig 4)", nil, Fig04Compressibility},
		fig07.experiment(),
		fig10.experiment(),
		{"fig11", "Distribution of BAI/TSI indices (Fig 11)", cells(all26, dice), Fig11IndexDistribution},
		fig12.experiment(),
		fig13.experiment(),
		{"fig14", "Power/Energy/EDP (Fig 14)", cells(all26, base, tsi, bai, dice), Fig14Energy},
		fig15.experiment(),
		table04.experiment(),
		{"table5", "Effective capacity (Table 5)", cells(all26, base, tsi, bai, dice), Table05Capacity},
		{"table6", "Effect of DICE on L3 hit rate (Table 6)", cells(all26, base, dice), Table06L3HitRate},
		table07.experiment(),
		table08.experiment(),
		{"cip", "CIP accuracy vs LTT size (Sec 5.3)", cells(all26, cipDesigns...), CIPAccuracy},
		{"fault-sweep", "Degradation under injected bit errors", cells(faultSweepWorkloads(), faultSweepPoints()...), FaultSweep},
		ablateIndex.experiment(),
		ablateCompress.experiment(),
		ablateMLP.experiment(),
		{"metrics-demo", "Observability demo: epoch metrics schema", cells([]workloads.Workload{metricsDemoWorkload()}, dice), MetricsDemo},
	}
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)",
		id, strings.Join(ids, ", "))
}
