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
	// Empty means in-process execution through the daemon's executor.
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
	// and delivers every snapshot to EpochSink as a job stream event —
	// over HTTP for daemon sharding, in-process otherwise. Ignored when
	// EpochSink is nil.
	MetricsEpoch uint64
	// EpochSink receives per-epoch metric snapshots as simulations
	// run, tagged with the simulation's memoization key. Called from
	// worker goroutines, possibly concurrently: must be safe for
	// concurrent use. Delivery is best-effort telemetry: each
	// (key, epoch) arrives at most once, and an epoch the daemon's
	// stream buffer dropped stays missing (cells are the exactly-once
	// layer, epochs are not).
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
func Run(ctx context.Context, cells []experiments.CellSpec, rlog *ResultLog, have map[string]serve.CellResult, opt Options) (map[string]serve.CellResult, error) {
	results := make(map[string]serve.CellResult, len(cells))
	for k, v := range have {
		results[k] = v
	}
	var pending []experiments.CellSpec
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

// cellJob is the job spec for a batch of cells, local or daemon: the
// sweep's worker bound, and its epoch period when a sink will read the
// epochs.
func cellJob(cells []experiments.CellSpec, opt Options) serve.JobSpec {
	spec := serve.JobSpec{Cells: cells, Workers: opt.Workers}
	if opt.EpochSink != nil {
		spec.MetricsEpoch = opt.MetricsEpoch
	}
	return spec
}

// deliver hands one job stream event to the sweep, local or daemon: a
// cell to record, an epoch to the sink.
func deliver(ev serve.StreamEvent, record func(serve.CellResult) error, opt Options) error {
	switch ev.Kind {
	case serve.StreamCell:
		return record(*ev.Cell)
	case serve.StreamEpoch:
		if opt.EpochSink != nil {
			opt.EpochSink(ev.Epoch.Key, ev.Epoch.Snap)
		}
	}
	return nil
}

// runLocal executes pending cells in-process as one job through the
// daemon's executor (serve.RunSpecStream), checkpointing each cell the
// moment it completes. The job's Output, one JSON line per cell, is
// not needed here and is dropped.
func runLocal(ctx context.Context, pending []experiments.CellSpec, record func(serve.CellResult) error, opt Options) error {
	var once sync.Once
	var recErr error
	// Expansion stamps every cell's Refs, so the default 0 is unused.
	_, err := serve.RunSpecStream(ctx, cellJob(pending, opt), 0, func(ev serve.StreamEvent) {
		if rerr := deliver(ev, record, opt); rerr != nil {
			once.Do(func() { recErr = rerr })
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
func runSharded(ctx context.Context, pending []experiments.CellSpec, record func(serve.CellResult) error, opt Options) error {
	batch := opt.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	if batch > serve.MaxCellsPerJob {
		batch = serve.MaxCellsPerJob
	}
	var batches [][]experiments.CellSpec
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
func runBatch(ctx context.Context, c *client.Client, cells []experiments.CellSpec, record func(serve.CellResult) error, opt Options) error {
	spec := cellJob(cells, opt)
	spec.DeadlineMS = opt.ShardDeadline.Milliseconds()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	// The client hands each distinct cell over once, however often the
	// stream is replayed; delivered only backs the omission check.
	delivered := make(map[string]bool, len(cells))
	final, err := c.Stream(ctx, st.ID, func(ev serve.StreamEvent) error {
		if ev.Kind == serve.StreamCell {
			delivered[ev.Cell.Key] = true
		}
		return deliver(ev, record, opt)
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
