package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"dice/internal/dse"
	"dice/internal/serve"
	"dice/internal/serve/client"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// sweep-service is a closed loop of sweepClients clients mirroring
// dicesweep's sharded path against one in-process daemon: each client
// submits a batch of tiny cells as one job, streams the job, appends
// every streamed cell to the shared results log, reads the job's
// status, and only then submits its next batch. The daemon journals to
// disk, runs one job at a time and fans each job out over
// jobSimWorkers simulations. The cells are a few hundred references
// each, so admission, the journal's group commit, queue wait, stream
// emit and the results-log fsync sit on every cell's turnaround; the
// baseline in README.md shows how much CPU simulation still takes.
const (
	sweepClients  = 2 // one per CPU of the 2-vCPU machine the baseline was measured on
	jobSimWorkers = 2
	cellsPerJob   = 8
)

// The cell space the seed draws from: SPEC rate workloads × the four
// main L4 designs × DICE thresholds × reference budgets. Every drawn
// cell is distinct, so the results log must replay each key once.
var (
	sweepPolicies   = []string{"base", "tsi", "bai", "dice"}
	sweepThresholds = []int{24, 28, 32, 36, 40, 44, 48}
	sweepRefsMin    = 200
	sweepRefsSpan   = 400
)

// cellGen hands out the seed's deterministic sequence of distinct
// cells; batch k is the same for a given seed whichever client takes
// it.
type cellGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	names []string
	used  map[string]bool
}

func newCellGen(seed int64) *cellGen {
	g := &cellGen{rng: rand.New(rand.NewSource(seed)), used: map[string]bool{}}
	for _, w := range workloads.Rate16() {
		g.names = append(g.names, w.Name)
	}
	return g
}

func (g *cellGen) batch(n int) []serve.CellSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]serve.CellSpec, 0, n)
	for len(out) < n {
		c := serve.CellSpec{
			Workload:  g.names[g.rng.Intn(len(g.names))],
			Policy:    sweepPolicies[g.rng.Intn(len(sweepPolicies))],
			Threshold: sweepThresholds[g.rng.Intn(len(sweepThresholds))],
			Refs:      sweepRefsMin + g.rng.Intn(sweepRefsSpan),
		}
		if k := c.Key(); !g.used[k] {
			g.used[k] = true
			out = append(out, c)
		}
	}
	return out
}

// sweepStats collects the per-call timings of one measured window.
type sweepStats struct {
	mu         sync.Mutex
	refs       uint64    // references the delivered cells simulated, warm-up included
	start      time.Time // when the window began
	last       time.Time // when the window's last append returned
	unstolen   float64   // the share of the CPU time the VM wanted that it got
	turnaround []time.Duration
	admit      []time.Duration
	queueWait  []time.Duration
	runTime    []time.Duration
	doneLag    []time.Duration
	appendTime []time.Duration
}

// sweepState is the service under test plus what the run delivered.
type sweepState struct {
	rep       *report
	probe     *hostProbe
	gen       *cellGen
	daemon    *serve.Daemon
	base      string
	rlog      *dse.ResultLog
	logPath   string
	mu        sync.Mutex
	delivered map[string]serve.CellResult
	specs     map[string]serve.CellSpec
}

func runSweep(o options) (*report, error) {
	rep := &report{metrics: metrics{}}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(o.workdir, "sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	st := &sweepState{rep: rep, probe: o.probe, gen: newCellGen(o.seed),
		delivered: map[string]serve.CellResult{}, specs: map[string]serve.CellSpec{}}
	setup, rawSetup, err := timeSetup(o.probe, st.start(root))
	if err != nil {
		return nil, err
	}
	defer st.stop()
	rep.metrics["setup_s"] = setup.Seconds()

	var measured *sweepStats
	var wall time.Duration
	if !o.trace {
		measurePeakRSS(rep, func() { measured, wall = st.window(o.window) })
	} else {
		var traced *sweepStats
		var tracedWall time.Duration
		measurePeakRSS(rep, func() { measured, wall = st.window(o.window / 2) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		self, err := profiled(func() error {
			traced, tracedWall = st.window(o.window / 2)
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		ledgerMetrics(rep.metrics, self, tracedWall)
		untracedRate := float64(len(measured.turnaround)) / measured.hostTime(o.probe, wall).Seconds()
		tracedRate := float64(len(traced.turnaround)) / traced.hostTime(o.probe, tracedWall).Seconds()
		rep.metrics["ledger.trace_overhead_frac"] = untracedRate/tracedRate - 1
		rep.metrics["runtime.alloc_bytes_per_ref"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(traced.refs)
		rep.metrics["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		st.layerMetrics(traced)
	}
	speed := o.probe.hostSpeed(measured.start, measured.last)
	rep.metrics["host.speed"] = speed
	scale := float64(measured.hostTime(o.probe, wall)) / float64(wall)
	rate := float64(len(measured.turnaround)) / wall.Hours()
	rep.metrics["cells_per_hour"] = rate / scale
	p50, tail, pct := latencySummary(measured.turnaround)
	rep.metrics["cell_turnaround_p50_ms"] = p50 * scale
	rep.metrics["cell_turnaround_p99_ms"] = tail * scale
	rep.metrics["turnaround.samples"] = float64(len(measured.turnaround))
	rep.metrics["turnaround.tail_pct"] = pct
	rep.note("as measured, at host speed %.3f with %.1f%% steal: %.0f cells/h, cell turnaround p50 %.2f ms, tail p%.0f %.2f ms over %d cells, set-up %.4g s",
		speed, 100*(1-measured.unstolen), rate, p50, pct, tail, len(measured.turnaround), rawSetup.Seconds())

	if err := st.health(); err != nil {
		rep.fail("health: %v", err)
	}
	if err := st.stop(); err != nil {
		rep.fail("shut down: %v", err)
	}
	st.localGate()
	st.replayGate()
	return rep, nil
}

// start returns the timed set-up step: warm the rate workloads' build
// artifacts, start a journaling daemon on a loopback port, and open
// the results log, each repetition in a fresh directory, which its undo
// removes.
func (st *sweepState) start(root string) func() (func() error, error) {
	rep := 0
	return func() (func() error, error) {
		rep++
		dir := filepath.Join(root, fmt.Sprint(rep))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		workloads.DropCache()
		for _, w := range workloads.Rate16() {
			w.Warm(10)
		}
		d, _, err := serve.New(serve.Config{
			JournalPath: filepath.Join(dir, "journal.log"),
			JobWorkers:  1,
		})
		if err != nil {
			return nil, err
		}
		addr, err := d.Start("127.0.0.1:0")
		if err != nil {
			d.Shutdown(context.Background())
			return nil, err
		}
		st.logPath = filepath.Join(dir, "results.log")
		rlog, _, err := dse.OpenResultLog(st.logPath)
		if err != nil {
			d.Shutdown(context.Background())
			return nil, err
		}
		st.daemon, st.base, st.rlog = d, "http://"+addr.String(), rlog
		return func() error { return errors.Join(st.stop(), os.RemoveAll(dir)) }, nil
	}
}

// stop shuts the daemon down and closes the results log; a second
// call is a no-op.
func (st *sweepState) stop() error {
	var errs []error
	if st.daemon != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, st.daemon.Shutdown(ctx))
		cancel()
		st.daemon = nil
	}
	if st.rlog != nil {
		errs = append(errs, st.rlog.Close())
		st.rlog = nil
	}
	return errors.Join(errs...)
}

// window runs the closed loop until d has elapsed; jobs in flight at
// that point finish and count. The probe runs in the background all the
// while, and the VM's steal time is read as the window starts and ends.
// It returns the window's timings and its wall time, up to the last
// append.
func (st *sweepState) window(d time.Duration) (*sweepStats, time.Duration) {
	stopProbe := st.probe.background()
	defer stopProbe()
	steal := startSteal()
	ss := &sweepStats{start: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), d+2*time.Minute)
	defer cancel()
	start := ss.start
	var wg sync.WaitGroup
	for i := 0; i < sweepClients; i++ {
		c := client.New(st.base, int64(i+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				st.job(ctx, c, ss)
			}
		}()
	}
	wg.Wait()
	ss.unstolen = steal.unstolen()
	if ss.last.IsZero() {
		ss.last = time.Now() // nothing delivered: every job failed
	}
	return ss, ss.last.Sub(start)
}

// job runs one batch through the service: submit, stream (appending
// each cell to the results log as it arrives), then read the status.
func (st *sweepState) job(ctx context.Context, c *client.Client, ss *sweepStats) {
	cells := st.gen.batch(cellsPerJob)
	st.mu.Lock()
	st.rep.attempted += len(cells)
	for _, cs := range cells {
		st.specs[cs.Key()] = cs
	}
	st.mu.Unlock()

	t0 := time.Now()
	js, err := c.Submit(ctx, serve.JobSpec{Cells: cells, Workers: jobSimWorkers})
	admit := time.Since(t0)
	if err != nil {
		st.failCells(cells, "submit: %v", err)
		return
	}
	got := map[string]bool{}
	var doneAt time.Time
	var turnaround, appends []time.Duration
	final, err := c.Stream(ctx, js.ID, func(ev serve.StreamEvent) error {
		switch ev.Kind {
		case serve.StreamCell:
			if ev.Cell == nil || got[ev.Cell.Key] {
				return nil
			}
			got[ev.Cell.Key] = true
			a0 := time.Now()
			if err := st.rlog.Append(*ev.Cell); err != nil {
				return err
			}
			now := time.Now()
			appends = append(appends, now.Sub(a0))
			turnaround = append(turnaround, now.Sub(t0))
			st.mu.Lock()
			st.delivered[ev.Cell.Key] = *ev.Cell
			st.mu.Unlock()
		case serve.StreamDone:
			doneAt = time.Now()
		}
		return nil
	})
	if err != nil {
		st.failCells(cells, "job %s: stream: %v", js.ID, err)
		return
	}
	status, err := c.Status(ctx, js.ID)
	if err != nil {
		st.failCells(cells, "job %s: status: %v", js.ID, err)
		return
	}
	if final.State != serve.StateDone || status.State != serve.StateDone {
		st.failCells(cells, "job %s ended %s: %s", js.ID, final.State, final.Error)
		return
	}
	for _, cs := range cells {
		if !got[cs.Key()] {
			st.failCells(cells, "job %s: stream omitted cell %s", js.ID, cs.Key())
			return
		}
	}

	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, cs := range cells {
		ss.refs += uint64(8 * cs.Refs * 3 / 2) // eight cores, plus the 50% warm-up
	}
	if last := t0.Add(turnaround[len(turnaround)-1]); last.After(ss.last) {
		ss.last = last
	}
	ss.turnaround = append(ss.turnaround, turnaround...)
	ss.appendTime = append(ss.appendTime, appends...)
	ss.admit = append(ss.admit, admit)
	ss.queueWait = append(ss.queueWait, status.StartedAt.Sub(status.SubmittedAt))
	ss.runTime = append(ss.runTime, status.FinishedAt.Sub(status.StartedAt))
	ss.doneLag = append(ss.doneLag, doneAt.Sub(status.FinishedAt))
}

// hostTime scales the window's wall time w to what it would have taken
// on the reference host with no steal: the load keeps both CPUs busy, so
// it ran at the probe's speed for the share of the time the VM got.
func (ss *sweepStats) hostTime(p *hostProbe, w time.Duration) time.Duration {
	return time.Duration(float64(w) * ss.unstolen * p.hostSpeed(ss.start, ss.last))
}

func (st *sweepState) failCells(cells []serve.CellSpec, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, cs := range cells {
		st.rep.fail("%s: %s", cs.Key(), msg)
	}
}

// layerMetrics reports the traced window's per-call timings, all taken
// outside the daemon.
func (st *sweepState) layerMetrics(ss *sweepStats) {
	m := st.rep.metrics
	m["serve.admit_p50_ms"] = ms(percentile(ss.admit, 50))
	m["serve.admit_p99_ms"] = ms(percentile(ss.admit, 99))
	m["serve.queue_wait_p50_ms"] = ms(percentile(ss.queueWait, 50))
	m["serve.run_p50_ms"] = ms(percentile(ss.runTime, 50))
	m["stream.done_lag_p50_ms"] = ms(percentile(ss.doneLag, 50))
	m["resultlog.append_p50_ms"] = ms(percentile(ss.appendTime, 50))
	if ls := st.rlog.Stats(); ls != nil {
		m["resultlog.appends_per_sync"] = ratio(ls.Appends, ls.Syncs)
	}
}

// health reads the daemon's self-stats: the journal's group-commit
// factor and the admission counters.
func (st *sweepState) health() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h, err := client.New(st.base, 0).Health(ctx)
	if err != nil {
		return err
	}
	if h.Journal != nil {
		st.rep.metrics["journal.appends_per_sync"] = ratio(h.Journal.Appends, h.Journal.Syncs)
	}
	st.rep.metrics["serve.jobs_rejected"] = float64(h.Stats.Rejected)
	st.rep.metrics["serve.queue_max_depth"] = float64(h.Stats.MaxQueueDepth)
	return nil
}

// localGate recomputes every delivered cell locally, untimed against
// the service but timed inside sim.RunEvent in process CPU time, as the
// sim workloads are — which gives this workload's sim_refs_per_s, the
// simulator's throughput on tiny cells, at reference-host speed — and
// requires the daemon's result to equal
// serve.CellResultFrom of the local run.
func (st *sweepState) localGate() {
	keys := make([]string, 0, len(st.delivered))
	for k := range st.delivered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var refs uint64
	var busy time.Duration
	start := time.Now()
	for _, k := range keys {
		st.probe.maybeSample()
		cs := st.specs[k]
		cfg, err := cs.Config(0)
		if err != nil {
			st.rep.fail("%s: %v", k, err)
			continue
		}
		w, err := workloads.ByName(cs.Workload)
		if err != nil {
			st.rep.fail("%s: %v", k, err)
			continue
		}
		c0 := processCPU()
		res, es, err := sim.RunEvent(cfg, w)
		busy += processCPU() - c0
		refs += es.CoreEvents
		if err != nil {
			st.rep.fail("%s: local run: %v", k, err)
			continue
		}
		if want := serve.CellResultFrom(k, res); !reflect.DeepEqual(st.delivered[k], want) {
			st.rep.fail("%s: daemon result differs from the local run", k)
		}
	}
	st.probe.sample()
	st.rep.metrics["sim_refs_per_s"] = float64(refs) / busy.Seconds() / st.probe.hostSpeed(start, time.Now())
}

// replayGate reopens the results log: it must replay exactly the
// delivered cells, each once and byte-identical.
func (st *sweepState) replayGate() {
	rlog, rp, err := dse.OpenResultLog(st.logPath)
	if err != nil {
		st.rep.fail("reopen results log: %v", err)
		return
	}
	if err := rlog.Close(); err != nil {
		st.rep.fail("close results log: %v", err)
	}
	if rp.Cells != len(st.delivered) || rp.TruncatedBytes != 0 {
		st.rep.fail("results log replays %d lines (%d torn bytes), want %d delivered cells",
			rp.Cells, rp.TruncatedBytes, len(st.delivered))
	}
	for k, want := range st.delivered {
		if got, ok := rp.Results[k]; !ok || !reflect.DeepEqual(got, want) {
			st.rep.fail("%s: results log replay differs from the delivered cell", k)
		}
	}
	for k := range rp.Results {
		if _, ok := st.delivered[k]; !ok {
			st.rep.fail("%s: results log holds a cell that was never delivered", k)
		}
	}
}
