// Submission-path latency guards, in the external test package so the
// measurement can drive the real HTTP surface through
// internal/serve/client (which imports serve) without an import cycle.
package serve_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dice/internal/commitlog"
	"dice/internal/experiments"
	"dice/internal/serve"
	"dice/internal/serve/client"
)

// submitConcurrency is how many clients the group-commit guard drives
// at once — the regime group commit exists for: every in-flight submit
// shares the journal batch behind the sync in progress instead of
// queueing its own fsync.
const submitConcurrency = 32

// measureSubmitLatency measures the daemon's job-submission path —
// HTTP POST through the retrying client, spec validation, journal
// append, queue insert, response — as a latency distribution over n
// submissions issued by `concurrency` goroutines against an in-process
// daemon on a real socket. journal, when non-nil, reconfigures the
// daemon's journal (a fixed sync cost, the fsync-per-append reference
// discipline); the journal's group-commit counters are returned so a
// guard can assert the batching actually happened. The queue is sized
// to hold every submission so no sample is inflated by 429
// backpressure retries; the jobs themselves are tiny single-cell sims
// that are cancelled before shutdown.
func measureSubmitLatency(t *testing.T, n, concurrency int, journal func(serve.Config) serve.Config) (latencySummary, *commitlog.Stats) {
	t.Helper()
	cfg := serve.Config{
		JournalPath: filepath.Join(t.TempDir(), "bench.journal"),
		QueueCap:    n + 16,
		JobWorkers:  2,
	}
	if journal != nil {
		cfg = journal(cfg)
	}
	d, _, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		d.Shutdown(ctx)
	}()

	// Sequential runs submit a small but real cell. Concurrent runs
	// shrink the cell to one reference: with tens of clients in flight
	// on few cores, running sims would otherwise saturate the CPU and
	// the distribution would measure scheduler contention, not the
	// submission path.
	refs := 200
	if concurrency > 1 {
		refs = 1
	}
	spec := serve.JobSpec{
		Cells: []experiments.CellSpec{{Workload: "gcc", Policy: "dice", Refs: refs, Scale: 10}},
	}
	var (
		lat      latencies
		ids      = make([]string, n)
		next     atomic.Int64
		wg       sync.WaitGroup
		firstErr atomic.Value
	)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New("http://"+addr.String(), int64(w))
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				st, err := c.Submit(context.Background(), spec)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				lat.Observe(time.Since(t0))
				ids[i] = st.ID
			}
		}(w)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		t.Fatalf("submit: %v", err)
	}

	c := client.New("http://"+addr.String(), 1)
	health, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	// Cancel the still-queued tail so shutdown drains in bounded time;
	// cells already run (or running) are tiny either way.
	for _, id := range ids {
		if id != "" {
			c.Cancel(context.Background(), id)
		}
	}
	return lat.Summary(), health.Journal
}

// TestSubmitLatencyEntry is the sanity check for the submission
// latency measurement: a reduced-sample sequential run must produce a
// sane, ordered distribution (0 < p50 <= p99 <= p999) — catching a
// broken daemon path or quantile extraction without being a
// performance assertion.
func TestSubmitLatencyEntry(t *testing.T) {
	s, _ := measureSubmitLatency(t, 32, 1, nil)
	if s.Count != 32 {
		t.Fatalf("measured %d samples, want 32", s.Count)
	}
	if !(s.P50 > 0 && s.P50 <= s.P99 && s.P99 <= s.P999) {
		t.Fatalf("quantiles out of order: %v", s)
	}
	if s.Mean <= 0 {
		t.Fatalf("mean not positive: %v", s)
	}
}

// guardSyncCost is the fixed journal fsync cost the fixed-sync guard
// runs both disciplines at.
const guardSyncCost = 2 * time.Millisecond

// TestGroupCommitFixedSyncGuard is the bench-smoke regression guard for
// the group-commit journal (DICE_SMOKE=1 gates the wall-clock
// assertion out of plain `go test ./...`). Every journal fsync takes a
// fixed 2ms in both disciplines: where fsync is nearly free the batched
// and per-append journals differ by scheduler noise, but at a known
// sync cost, 32 clients queueing behind per-append fsyncs wait for
// their predecessors' syncs, while batched submits share one. The
// batched journal must beat the fsync-per-append reference at p99 by
// at least the 1.05x smoke floor, and the journal counters must prove
// the batching structurally — materially fewer syncs than appends,
// with at least one multi-record batch — while the reference mode pays
// exactly one sync per append.
func TestGroupCommitFixedSyncGuard(t *testing.T) {
	if os.Getenv("DICE_SMOKE") == "" {
		t.Skip("set DICE_SMOKE=1 (make bench-smoke) to run the group-commit regression guard")
	}
	const n = 256
	fixed := func(noGroupCommit bool) func(serve.Config) serve.Config {
		return func(cfg serve.Config) serve.Config {
			return serve.FixedSyncForTest(cfg, noGroupCommit, guardSyncCost)
		}
	}
	batched, bstats := measureSubmitLatency(t, n, submitConcurrency, fixed(false))
	reference, rstats := measureSubmitLatency(t, n, submitConcurrency, fixed(true))
	if bstats == nil || rstats == nil {
		t.Fatal("journal stats missing from /healthz")
	}
	t.Logf("batched:   p50 %v p99 %v (%d appends, %d syncs, max batch %d)",
		batched.P50, batched.P99, bstats.Appends, bstats.Syncs, bstats.MaxBatchRecords)
	t.Logf("reference: p50 %v p99 %v (%d appends, %d syncs)",
		reference.P50, reference.P99, rstats.Appends, rstats.Syncs)

	if rstats.Syncs != rstats.Appends {
		t.Fatalf("reference mode must sync per append: %d syncs for %d appends", rstats.Syncs, rstats.Appends)
	}
	if bstats.Syncs*2 > bstats.Appends || bstats.MaxBatchRecords < 2 {
		t.Fatalf("group commit did not batch: %d syncs for %d appends, max batch %d",
			bstats.Syncs, bstats.Appends, bstats.MaxBatchRecords)
	}
	const floor = 1.05
	if float64(reference.P99) < float64(batched.P99)*floor {
		t.Fatalf("batched submit p99 %v does not beat fsync-per-append p99 %v by the %.2fx smoke floor",
			batched.P99, reference.P99, floor)
	}
}
