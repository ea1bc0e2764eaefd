// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 1f, 4, 7, 10-15; Tables 4-8; the CIP accuracy sweep
// of Section 5.3). Each experiment is a named driver producing a Report;
// a shared Runner memoizes simulation results so the baseline runs that
// many experiments normalize against are executed once.
package experiments

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dice/internal/dcache"
	"dice/internal/obs"
	"dice/internal/parallel"
	"dice/internal/sim"
	"dice/internal/stats"
	"dice/internal/workloads"
)

// Runner executes and memoizes simulations. All methods are safe for
// concurrent use: memoization is singleflight, so a (config, workload)
// pair is simulated exactly once no matter how many experiments request
// it concurrently, and every later caller blocks until that one result
// is ready.
type Runner struct {
	// RefsPerCore overrides the measured reference count (0 = auto).
	// Tests use small values; the CLI uses larger ones.
	RefsPerCore int
	// Scale is the system scale shift (0 = default 10, i.e. 1/1024).
	Scale uint
	// Verbose prints progress lines as runs complete.
	Verbose bool
	// Workers bounds the simulations Prefetch and RunAll execute
	// concurrently (0 = one per CPU). Workers == 1 is the bit-exact
	// serial reference schedule; because sim.Run is deterministic per
	// (config, workload), every worker count produces byte-identical
	// results — the determinism tests enforce this.
	Workers int
	// FaultBER, FaultSeed and FaultPolicy apply fault injection to every
	// named configuration this runner launches (sim.Config fields of the
	// same names). Zero BER leaves injection off; the fault-sweep
	// experiment instead mints per-BER configs itself.
	FaultBER float64
	// FaultSeed pins the deterministic fault stream (see FaultBER).
	FaultSeed uint64
	// FaultPolicy selects the recovery policy (see FaultBER).
	FaultPolicy string

	// MetricsEpoch, when nonzero, attaches an epoch-metrics recorder
	// (sampling every MetricsEpoch cycles) to every simulation this
	// runner executes; the recorded snapshots are retrievable with
	// Metrics. Recording never changes results: sim.RunObserved is
	// read-only with respect to the simulation.
	MetricsEpoch uint64
	// MetricsEmit, when non-nil (and MetricsEpoch is set), receives
	// every recorded epoch snapshot the moment it is recorded, tagged
	// with the simulation's memoization key — the incremental-export
	// hook behind the daemon's stream. Because memoization runs each
	// key once, duplicate requests of a key emit its epochs once. The
	// hook runs on simulation worker goroutines, possibly several
	// concurrently for different keys: it must be safe for concurrent
	// use and should not block.
	MetricsEmit func(key string, s obs.Snapshot)

	mu      sync.Mutex
	cache   map[string]*flight
	metrics map[string][]obs.Snapshot
	sims    atomic.Int64
	cycles  atomic.Uint64

	logOnce sync.Once
	log     *parallel.Logger

	// simulate runs one simulation; nil means sim.RunObserved. The
	// cross-core tests set it to sim.RunReferenceObserved to render whole
	// reports on the cycle-stepped reference core.
	simulate func(sim.Config, workloads.Workload, *obs.Observer) (sim.Result, error)

	// testHookSimDone, when non-nil, runs after every executed
	// simulation with its memoization key. Test instrumentation only:
	// the cancellation-latency tests use it to cancel a context at a
	// precise point between cells.
	testHookSimDone func(key string)
}

// flight is one memoization slot. The first requester simulates and
// closes done; concurrent requesters of the same key block on done and
// then read res (or re-panic a recorded panic).
type flight struct {
	done     chan struct{}
	res      sim.Result
	panicked any
}

// NewRunner returns a Runner with the given per-core reference budget.
func NewRunner(refsPerCore int) *Runner {
	return &Runner{RefsPerCore: refsPerCore, cache: make(map[string]*flight)}
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

// Metrics returns a copy of the epoch snapshots recorded so far, keyed
// by memoization key ("<config>|<workload>"). Empty unless
// MetricsEpoch was set before the runs executed.
func (r *Runner) Metrics() map[string][]obs.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]obs.Snapshot, len(r.metrics))
	for k, v := range r.metrics {
		out[k] = v
	}
	return out
}

// logf emits one line-atomic progress message when Verbose is set.
func (r *Runner) logf(format string, args ...any) {
	if !r.Verbose {
		return
	}
	r.logOnce.Do(func() { r.log = parallel.NewLogger(os.Stdout) })
	r.log.Printf(format, args...)
}

// named configurations used across experiments.
func (r *Runner) config(name string) sim.Config {
	cfg := sim.Config{RefsPerCore: r.RefsPerCore, ScaleShift: r.Scale}
	switch name {
	case "base":
		cfg.Policy = dcache.PolicyUncompressed
	case "tsi":
		cfg.Policy = dcache.PolicyTSI
	case "nsi":
		cfg.Policy = dcache.PolicyNSI
	case "bai":
		cfg.Policy = dcache.PolicyBAI
	case "dice":
		cfg.Policy = dcache.PolicyDICE
	case "scc":
		cfg.Policy = dcache.PolicySCC
	case "dice-knl":
		cfg.Policy = dcache.PolicyDICE
		cfg.Org = dcache.OrgKNL
	case "dice-t32":
		cfg.Policy = dcache.PolicyDICE
		cfg.Threshold = 32
	case "dice-t40":
		cfg.Policy = dcache.PolicyDICE
		cfg.Threshold = 40
	case "base-2cap":
		cfg.Policy = dcache.PolicyUncompressed
		cfg.CapacityMult = 2
	case "base-2bw":
		cfg.Policy = dcache.PolicyUncompressed
		cfg.BWMult = 2
	case "base-2both":
		cfg.Policy = dcache.PolicyUncompressed
		cfg.CapacityMult = 2
		cfg.BWMult = 2
	case "base-half":
		cfg.Policy = dcache.PolicyUncompressed
		cfg.HalfLatency = true
	case "dice-2cap":
		cfg.Policy = dcache.PolicyDICE
		cfg.CapacityMult = 2
	case "dice-2bw":
		cfg.Policy = dcache.PolicyDICE
		cfg.BWMult = 2
	case "dice-half":
		cfg.Policy = dcache.PolicyDICE
		cfg.HalfLatency = true
	case "base-128pf":
		cfg.Policy = dcache.PolicyUncompressed
		cfg.Prefetch = sim.PrefetchWide128
	case "base-nlpf":
		cfg.Policy = dcache.PolicyUncompressed
		cfg.Prefetch = sim.PrefetchNextLine
	case "dice-nlpf":
		cfg.Policy = dcache.PolicyDICE
		cfg.Prefetch = sim.PrefetchNextLine
	default:
		panic("experiments: unknown config " + name)
	}
	cfg.FaultBER = r.FaultBER
	cfg.FaultSeed = r.FaultSeed
	cfg.FaultPolicy = r.FaultPolicy
	return cfg
}

// Run executes (or recalls) one workload under a named configuration.
func (r *Runner) Run(cfgName string, w workloads.Workload) sim.Result {
	return r.RunConfig(cfgName+"|"+w.Name, r.config(cfgName), w)
}

// RunConfig executes (or recalls) workload w under an arbitrary
// configuration, memoized under key. Keys follow the "<config>|<workload>"
// convention; experiments that sweep parameters outside the named set
// (the CIP size sweep, the ablations) mint their own config labels.
//
// Concurrent calls with the same key simulate exactly once: the first
// caller runs sim.Run while the rest block until the result is ready. A
// panicking simulation is re-panicked in every waiter, so a pool worker
// failure propagates instead of deadlocking the queue.
func (r *Runner) RunConfig(key string, cfg sim.Config, w workloads.Workload) sim.Result {
	r.mu.Lock()
	if r.cache == nil {
		r.cache = make(map[string]*flight)
	}
	if f, ok := r.cache[key]; ok {
		r.mu.Unlock()
		<-f.done
		if f.panicked != nil {
			panic(f.panicked)
		}
		return f.res
	}
	f := &flight{done: make(chan struct{})}
	r.cache[key] = f
	r.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			f.panicked = p
			close(f.done)
			panic(p)
		}
		close(f.done)
	}()
	var ob *obs.Observer
	if r.MetricsEpoch > 0 {
		rec := obs.NewRecorder(r.MetricsEpoch)
		if r.MetricsEmit != nil {
			rec.OnRecord = func(s obs.Snapshot) { r.MetricsEmit(key, s) }
		}
		ob = &obs.Observer{Rec: rec}
	}
	res, err := r.runSim(cfg, w, ob)
	if err != nil {
		// Experiment configs are internal code, not user input: a bad one
		// is a programming error, and panicking keeps the singleflight
		// propagation semantics (every waiter re-panics).
		panic(err)
	}
	f.res = res
	r.sims.Add(1)
	r.cycles.Add(res.Cycles)
	if r.testHookSimDone != nil {
		r.testHookSimDone(key)
	}
	if ob != nil {
		r.mu.Lock()
		if r.metrics == nil {
			r.metrics = make(map[string][]obs.Snapshot)
		}
		r.metrics[key] = ob.Rec.Snapshots()
		r.mu.Unlock()
	}
	if cut := strings.IndexByte(key, '|'); cut >= 0 {
		r.logf("  ran %-12s %-10s L4hit=%.2f L3hit=%.2f\n",
			key[:cut], w.Name, f.res.L4.HitRate(), f.res.L3.HitRate())
	} else {
		r.logf("  ran %-23s L4hit=%.2f L3hit=%.2f\n",
			key, f.res.L4.HitRate(), f.res.L3.HitRate())
	}
	return f.res
}

// Speedup returns the weighted speedup of cfgName over the uncompressed
// baseline for workload w.
func (r *Runner) Speedup(cfgName string, w workloads.Workload) float64 {
	return sim.Speedup(r.Run("base", w), r.Run(cfgName, w))
}

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment's catalog identifier (fig10, table4, ...).
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

// Experiment is one regenerable table/figure. Cells (optional) lists
// the experiment's full config×workload simulation matrix so RunAll can
// submit every cell to the worker pool before any report is assembled;
// experiments that run no simulations (fig4) leave it nil.
type Experiment struct {
	// ID is the catalog identifier (-run selector in cmd/dicebench).
	ID string
	// Title is the one-line description shown in listings.
	Title string
	// Run assembles the experiment's report (simulations memoized).
	Run func(*Runner) *Report
	// Cells enumerates the simulation matrix for up-front prefetch.
	Cells func(*Runner) []Cell
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Potential from doubling capacity/bandwidth (Fig 1f)", Fig01Potential, fig01Cells},
		{"fig4", "Fraction of compressible lines (Fig 4)", Fig04Compressibility, nil},
		{"fig7", "Static indexing: TSI vs BAI (Fig 7)", Fig07StaticIndexing, fig07Cells},
		{"fig10", "DICE speedup (Fig 10)", Fig10DICE, fig10Cells},
		{"fig11", "Distribution of BAI/TSI indices (Fig 11)", Fig11IndexDistribution, fig11Cells},
		{"fig12", "DICE on Knights Landing organization (Fig 12)", Fig12KNL, fig12Cells},
		{"fig13", "Non-memory-intensive workloads (Fig 13)", Fig13NonIntensive, fig13Cells},
		{"fig14", "Power/Energy/EDP (Fig 14)", Fig14Energy, fig14Cells},
		{"fig15", "Skewed Compressed Cache on DRAM (Fig 15)", Fig15SCC, fig15Cells},
		{"table4", "Sensitivity to DICE threshold (Table 4)", Table04Threshold, table04Cells},
		{"table5", "Effective capacity (Table 5)", Table05Capacity, table05Cells},
		{"table6", "Effect of DICE on L3 hit rate (Table 6)", Table06L3HitRate, table06Cells},
		{"table7", "Comparison to prefetch (Table 7)", Table07Prefetch, table07Cells},
		{"table8", "Sensitivity to capacity/BW/latency (Table 8)", Table08Sensitivity, table08Cells},
		{"cip", "CIP accuracy vs LTT size (Sec 5.3)", CIPAccuracy, cipCells},
		{"fault-sweep", "Degradation under injected bit errors", FaultSweep, faultSweepCells},
		{"ablate-index", "Ablation: NSI vs BAI vs DICE indexing", AblationIndexing, ablateIndexCells},
		{"ablate-compress", "Ablation: FPC-only vs BDI-only vs hybrid", AblationCompressor, ablateCompressCells},
		{"ablate-mlp", "Ablation: core MLP-window sensitivity", AblationMLP, ablateMLPCells},
		{"metrics-demo", "Observability demo: epoch metrics schema", MetricsDemo, metricsDemoCells},
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
