package dse

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dice/internal/experiments"
	"dice/internal/obs"
	"dice/internal/serve"
	"dice/internal/serve/client"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// DefaultBatch is the cells-per-job batch size for daemon-sharded
// runs when Options.Batch is zero: big enough to amortize the
// submit/stream round trips, small enough that a shard death or per-job
// deadline loses little work (every delivered batch is already
// checkpointed cell-by-cell).
const DefaultBatch = 256

// Options configures one sweep execution.
type Options struct {
	// Workers bounds concurrent simulations (0 = one per CPU; 1 is the
	// serial reference schedule — results are byte-identical at every
	// setting).
	Workers int
	// Daemons lists dicebenchd base URLs to shard the sweep across.
	// Empty means in-process execution through the experiment runner.
	Daemons []string
	// Batch is the cells-per-job bound for daemon sharding (0 =
	// DefaultBatch; capped at serve.MaxCellsPerJob).
	Batch int
	// ShardDeadline is the per-job wall-clock deadline daemons enforce
	// (0 = none). A batch that blows it fails alone; its cells stay
	// pending for -resume.
	ShardDeadline time.Duration
	// MetricsEpoch, when nonzero, attaches an epoch-metrics recorder
	// (every MetricsEpoch simulated cycles) to each cell's simulation
	// and delivers every snapshot to EpochSink — over the job stream
	// for daemon sharding, straight from the runner for in-process
	// runs. Ignored when EpochSink is nil.
	MetricsEpoch uint64
	// EpochSink receives per-epoch metric snapshots as simulations
	// run, tagged with the simulation's memoization key. Called from
	// worker goroutines, possibly concurrently: must be safe for
	// concurrent use. Delivery is best-effort telemetry: a daemon
	// restart mid-batch may re-deliver or drop epochs (cells are the
	// exactly-once layer, epochs are not).
	EpochSink func(key string, s obs.Snapshot)
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// logf emits one progress line when a sink is configured.
func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Run executes every cell not already in have, checkpointing each
// completed cell to rlog (nil = no checkpointing) and merging into the
// returned map, which starts as a copy of have. Execution is sharded
// across opt.Daemons when set, in-process otherwise; either way the
// result values are identical because both paths derive them through
// serve.CellResultFrom. On cancellation or shard failure Run returns
// the results it has alongside the error — everything completed is
// already in the log, so a re-invocation with -resume picks up where
// this left off.
func Run(ctx context.Context, cells []serve.CellSpec, rlog *ResultLog, have map[string]serve.CellResult, opt Options) (map[string]serve.CellResult, error) {
	results := make(map[string]serve.CellResult, len(cells))
	for k, v := range have {
		results[k] = v
	}
	var pending []serve.CellSpec
	for _, c := range cells {
		if _, done := results[c.Key()]; !done {
			pending = append(pending, c)
		}
	}
	opt.logf("sweep: %d cells, %d already logged, %d to run", len(cells), len(cells)-len(pending), len(pending))
	if len(pending) == 0 {
		return results, nil
	}
	var (
		mu  sync.Mutex
		err error
	)
	record := func(res serve.CellResult) error {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := results[res.Key]; dup {
			return nil // duplicate delivery (retried batch) — first wins
		}
		if aerr := rlog.Append(res); aerr != nil {
			return aerr
		}
		results[res.Key] = res
		return nil
	}
	if len(opt.Daemons) == 0 {
		err = runLocal(ctx, pending, record, opt)
	} else {
		err = runSharded(ctx, pending, record, opt)
	}
	return results, err
}

// runLocal executes pending cells in-process on a fresh memoizing
// runner, checkpointing each cell the moment it completes.
func runLocal(ctx context.Context, pending []serve.CellSpec, record func(serve.CellResult) error, opt Options) error {
	ecells := make([]experiments.Cell, len(pending))
	for i, cs := range pending {
		cfg, err := cs.Config(0) // expansion stamps Refs; 0 default unused
		if err != nil {
			return fmt.Errorf("dse: cell %s: %w", cs.Key(), err)
		}
		w, err := workloads.ByName(cs.Workload)
		if err != nil {
			return fmt.Errorf("dse: cell %s: %w", cs.Key(), err)
		}
		ecells[i] = experiments.Cell{Key: cs.Key(), Cfg: cfg, W: w}
	}
	r := experiments.NewRunner(0)
	r.Workers = opt.Workers
	if opt.MetricsEpoch > 0 && opt.EpochSink != nil {
		r.MetricsEpoch = opt.MetricsEpoch
		r.MetricsEmit = opt.EpochSink
	}
	var recErr error
	var recMu sync.Mutex
	err := r.ForEachCellCtx(ctx, ecells, func(i int, res sim.Result) {
		if rerr := record(serve.CellResultFrom(ecells[i].Key, res)); rerr != nil {
			recMu.Lock()
			if recErr == nil {
				recErr = rerr
			}
			recMu.Unlock()
		}
	})
	if recErr != nil {
		return recErr
	}
	return err
}

// runSharded executes pending cells across the configured daemons:
// the cells are chunked into batches, one worker goroutine per daemon
// pulls batches off a shared queue, and each batch becomes one job —
// submitted through the retrying client (429 backpressure and
// transient failures are absorbed there), awaited, decoded, and
// checkpointed cell-by-cell. A failed batch is recorded and the
// worker moves on, so one sick shard or one deadline-blown batch
// costs only its own cells; the returned error advises -resume.
func runSharded(ctx context.Context, pending []serve.CellSpec, record func(serve.CellResult) error, opt Options) error {
	batch := opt.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	if batch > serve.MaxCellsPerJob {
		batch = serve.MaxCellsPerJob
	}
	var batches [][]serve.CellSpec
	for lo := 0; lo < len(pending); lo += batch {
		hi := min(lo+batch, len(pending))
		batches = append(batches, pending[lo:hi])
	}
	opt.logf("sweep: sharding %d cells as %d batches across %d daemons", len(pending), len(batches), len(opt.Daemons))

	queue := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	for di, base := range opt.Daemons {
		wg.Add(1)
		go func(di int, base string) {
			defer wg.Done()
			c := client.New(base, int64(di+1))
			for bi := range queue {
				if err := runBatch(ctx, c, batches[bi], record, opt); err != nil {
					fail(fmt.Errorf("dse: daemon %s batch %d: %w", base, bi, err))
				}
			}
		}(di, base)
	}
	for bi := range batches {
		if ctx.Err() != nil {
			break
		}
		queue <- bi
	}
	close(queue)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%w (completed cells are logged; re-run with -resume)", errors.Join(errs...))
	}
	return nil
}

// runBatch runs one batch as one daemon job and streams its results:
// cells are recorded — and hit the results log — the moment the daemon
// emits them, long before the job is terminal, and epoch snapshots
// flow to the sink as they happen.
func runBatch(ctx context.Context, c *client.Client, cells []serve.CellSpec, record func(serve.CellResult) error, opt Options) error {
	spec := serve.JobSpec{
		Cells:      cells,
		Workers:    opt.Workers,
		DeadlineMS: opt.ShardDeadline.Milliseconds(),
	}
	if opt.EpochSink != nil {
		spec.MetricsEpoch = opt.MetricsEpoch
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	// delivered dedups within this batch: a daemon restart mid-stream
	// mints a new generation and re-delivers the cells the old one
	// already sent (see serve's stream delivery contract). The sweep-
	// wide record closure dedups again across batches; both layers key
	// on the canonical cell key.
	delivered := make(map[string]bool, len(cells))
	final, err := c.Stream(ctx, st.ID, func(ev serve.StreamEvent) error {
		switch ev.Kind {
		case serve.StreamCell:
			if ev.Cell == nil || delivered[ev.Cell.Key] {
				return nil
			}
			delivered[ev.Cell.Key] = true
			return record(*ev.Cell)
		case serve.StreamEpoch:
			if opt.EpochSink != nil && ev.Epoch != nil {
				opt.EpochSink(ev.Epoch.Key, ev.Epoch.Snap)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream %s: %w", st.ID, err)
	}
	if final.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	for _, cs := range cells {
		if !delivered[cs.Key()] {
			return fmt.Errorf("job %s stream omitted cell %s", st.ID, cs.Key())
		}
	}
	opt.logf("sweep: batch of %d cells streamed from job %s", len(cells), st.ID)
	return nil
}
