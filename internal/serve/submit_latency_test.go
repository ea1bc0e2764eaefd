// Submission-path tests, in the external test package so the
// measurement can drive the real HTTP surface through
// internal/serve/client (which imports serve) without an import cycle.
package serve_test

import (
	"context"
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

// submitConcurrency is how many clients the group-commit test drives
// at once — the regime group commit exists for: every in-flight submit
// shares the journal batch behind the sync in progress instead of
// queueing its own fsync.
const submitConcurrency = 32

// measureSubmitLatency measures the daemon's job-submission path —
// HTTP POST through the retrying client, spec validation, journal
// append, queue insert, response — as a latency distribution over n
// submissions issued by `concurrency` goroutines against an in-process
// daemon on a real socket. A positive syncCost pads every journal
// fsync to take that long; the journal's group-commit counters are
// returned so a test can assert the batching actually happened. The
// queue is sized to hold every submission so no sample is inflated by
// 429 backpressure retries; the jobs themselves are tiny single-cell
// sims that are cancelled before shutdown.
func measureSubmitLatency(t *testing.T, n, concurrency int, syncCost time.Duration) (latencySummary, *commitlog.Stats) {
	t.Helper()
	cfg := serve.Config{
		JournalPath: filepath.Join(t.TempDir(), "bench.journal"),
		QueueCap:    n + 16,
		JobWorkers:  2,
	}
	if syncCost > 0 {
		cfg = serve.FixedSyncForTest(cfg, syncCost)
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
	s, _ := measureSubmitLatency(t, 32, 1, 0)
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

// journalSyncCost is the fixed journal fsync cost the group-commit
// test runs at.
const journalSyncCost = 2 * time.Millisecond

// TestConcurrentSubmitsShareJournalSyncs proves the daemon shares
// journal syncs between concurrent submits: with every journal fsync
// padded to a fixed 2ms (where fsync is nearly free, submits would
// rarely overlap one in flight), 32 clients submitting through the
// HTTP surface must be acknowledged with at most half as many syncs as
// appends, in at least one multi-record batch. The daemon enqueues each
// submit record under its mutex but waits for the sync after
// unlocking; holding the mutex across the wait would serialize the
// syncs and fail this.
func TestConcurrentSubmitsShareJournalSyncs(t *testing.T) {
	const n = 256
	s, st := measureSubmitLatency(t, n, submitConcurrency, journalSyncCost)
	if st == nil {
		t.Fatal("journal stats missing from /healthz")
	}
	t.Logf("p50 %v p99 %v (%d appends, %d syncs, max batch %d)",
		s.P50, s.P99, st.Appends, st.Syncs, st.MaxBatchRecords)
	if st.Syncs*2 > st.Appends || st.MaxBatchRecords < 2 {
		t.Fatalf("group commit did not batch: %d syncs for %d appends, max batch %d",
			st.Syncs, st.Appends, st.MaxBatchRecords)
	}
}
