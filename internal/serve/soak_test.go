// Load/soak proof for the daemon, in the external test package so it
// can exercise the real HTTP surface through internal/serve/client
// (which imports serve) without an import cycle.
package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dice/internal/leakcheck"
	"dice/internal/serve"
	"dice/internal/serve/client"
)

// TestSoakConcurrentSubmissions floods the daemon with concurrent
// submissions through the retrying client — far more than the queue
// holds — and proves the robustness contract end to end:
//
//   - backpressure engaged: some submissions were rejected with 429
//     and absorbed by client retries (no job was lost);
//   - queue depth stayed bounded at QueueCap;
//   - every job's output is byte-identical to a serial (workers=1)
//     reference run of the same spec — concurrency changes timing,
//     never results;
//   - no goroutines leak once the daemon shuts down.
//
// The default size keeps tier-1 wall-clock small; DICE_SMOKE=1 (the
// same gate as bench-smoke) raises it to the full 2000-job soak used
// by `make soak` and CI's daemon job. At that scale the poll interval
// and retry budget stretch too: two thousand clients polling every
// 10ms would measure the HTTP mux, not the daemon contract. Under the
// race detector the smoke tier stays at the hundreds scale — `make
// soak` runs both a race pass and a plain thousands pass.
func TestSoakConcurrentSubmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	verifyLeaks := leakcheck.Check(t)

	jobs := 60
	poll := 10 * time.Millisecond
	maxDelay := 100 * time.Millisecond
	maxAttempts := 400
	timeout := 3 * time.Minute
	if os.Getenv("DICE_SMOKE") == "1" {
		jobs = 2000
		if raceEnabled {
			// The detector's instrumentation cost scales with goroutine
			// count times synchronization volume; 2000 clients with
			// tens of thousands of backpressure retries does not finish
			// in bounded wall-clock on a small machine. The race pass
			// proves the concurrency contract at the hundreds scale;
			// the plain pass carries the thousands-scale proof.
			jobs = 200
		}
		poll = time.Second
		maxDelay = 250 * time.Millisecond
		maxAttempts = 600
		timeout = 25 * time.Minute
	}
	const queueCap = 32

	// Gate the prefill jobs (recognized by their distinctive ref
	// budget) inside the executor: they hold their worker until the
	// flood below has provably met a full queue. Without the gate the
	// 429 assertion races job runtime against submission rate — the
	// simulator is fast enough that prefill jobs can drain as quickly
	// as the journal-fsync'd submissions arrive, and the queue never
	// fills on a loaded machine.
	gate := make(chan struct{})
	cfg := serve.ExecuteForTest(serve.Config{
		JournalPath: filepath.Join(t.TempDir(), "soak.journal"),
		QueueCap:    queueCap,
		JobWorkers:  4,
		Logf:        func(string, ...any) {},
	}, func(ctx context.Context, spec serve.JobSpec, emit func(serve.StreamEvent)) (string, error) {
		if spec.Refs >= 3_000 {
			select {
			case <-gate:
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		return serve.RunSpecStream(ctx, spec, 0, emit)
	})
	d, _, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Four distinct flood specs so the byte-equality check is not
	// trivially one cached string; metrics-demo at tiny ref budgets
	// keeps each flood job in the low milliseconds. The prefill below
	// uses a fifth, slower shape.
	specFor := func(i int) serve.JobSpec {
		return serve.JobSpec{
			Experiments: []string{"metrics-demo"},
			Refs:        300 + (i%4)*50,
			Scale:       12,
			Workers:     2,
		}
	}
	// Serial references: workers=1, same spec, computed outside the
	// daemon. The acceptance bar is byte-identity per job.
	refs := make(map[int]string)
	refFor := func(i int) string {
		spec := specFor(i)
		if out, ok := refs[spec.Refs]; ok {
			return out
		}
		spec.Workers = 1
		out, err := serve.RunSpec(context.Background(), spec, 0)
		if err != nil {
			t.Fatalf("reference run refs=%d: %v", spec.Refs, err)
		}
		refs[spec.Refs] = out
		return out
	}

	httpClient := &http.Client{}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	// Prefill: stuff the queue to its cap with gated jobs (held by the
	// executor wrapper above) through a retrying client, so the flood
	// below is guaranteed to meet a full queue and take 429s. Each
	// prefill job keeps a distinct ref budget: the ≥3000 band is the
	// gate's recognition key, and the process-wide workload artifact
	// cache would otherwise collapse identical specs once released.
	prefillSpec := func(i int) serve.JobSpec {
		return serve.JobSpec{
			Experiments: []string{"metrics-demo"}, Refs: 3_000 + i*7, Scale: 12, Workers: 2,
		}
	}
	prefill := client.New("http://"+addr.String(), 99)
	prefill.HTTPClient = httpClient
	prefill.BaseDelay = 5 * time.Millisecond
	prefill.MaxDelay = maxDelay
	prefill.MaxAttempts = maxAttempts
	prefillIDs := make([]string, 0, queueCap+4)
	for i := 0; i < queueCap+4; i++ {
		st, err := prefill.Submit(ctx, prefillSpec(i))
		if err != nil {
			t.Fatalf("prefill %d: %v", i, err)
		}
		prefillIDs = append(prefillIDs, st.ID)
	}

	type result struct {
		idx int
		st  serve.JobStatus
		err error
	}
	results := make(chan result, jobs)
	// Per-submission latency as seen through the retrying client —
	// backpressure retries included, so the tail is the backpressure
	// story, not just the handler.
	var submitLat latencies
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.New("http://"+addr.String(), int64(i))
			c.HTTPClient = httpClient
			c.BaseDelay = 5 * time.Millisecond
			c.MaxDelay = maxDelay
			c.MaxAttempts = maxAttempts
			t0 := time.Now()
			st, err := c.Submit(ctx, specFor(i))
			submitLat.Observe(time.Since(t0))
			if err == nil {
				st, err = pollDone(ctx, c, st.ID, poll)
			}
			results <- result{i, st, err}
		}(i)
	}

	// Release the gated prefill workers only once the flood has taken
	// at least one 429 — from here the backpressure assertion below is
	// a certainty, not a timing accident.
	for d.Stats().Rejected == 0 {
		if ctx.Err() != nil {
			t.Fatal("flood never met a full queue before the context deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(results)

	for i, id := range prefillIDs {
		st, err := pollDone(ctx, prefill, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("prefill job %d: %v", i, err)
		}
		if st.State != serve.StateDone {
			t.Fatalf("prefill job %d finished %s (%s)", i, st.State, st.Error)
		}
		// Byte-identity spot check on the first two prefill jobs (a
		// serial reference per distinct budget would double the test).
		if i < 2 && !st.OutputDropped {
			spec := prefillSpec(i)
			spec.Workers = 1
			want, err := serve.RunSpec(context.Background(), spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if st.Output != want {
				t.Fatalf("prefill job %d diverged from serial reference", i)
			}
		}
	}

	mismatches := 0
	for r := range results {
		if r.err != nil {
			t.Fatalf("job %d: %v", r.idx, r.err)
		}
		if r.st.State != serve.StateDone {
			t.Fatalf("job %d finished %s (%s)", r.idx, r.st.State, r.st.Error)
		}
		if r.st.OutputDropped {
			continue // retention evicted it; equality checked via the rest
		}
		if want := refFor(r.idx); r.st.Output != want {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("job %d output diverges from serial reference:\n got %d bytes\nwant %d bytes", r.idx, len(r.st.Output), len(want))
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d jobs diverged from the serial reference", mismatches, jobs)
	}

	st := d.Stats()
	if st.Rejected == 0 {
		t.Errorf("no 429s with %d submissions against a %d-deep queue: backpressure never engaged", jobs, queueCap)
	}
	if st.MaxQueueDepth > queueCap {
		t.Errorf("queue depth peaked at %d, above its %d bound", st.MaxQueueDepth, queueCap)
	}
	if want := uint64(jobs + len(prefillIDs)); st.Done != want {
		t.Errorf("daemon completed %d jobs, want %d", st.Done, want)
	}
	t.Logf("soak: %d jobs, %d rejections absorbed by retry, peak queue depth %d",
		jobs, st.Rejected, st.MaxQueueDepth)
	if submitLat.Count() != jobs {
		t.Errorf("latency histogram holds %d samples for %d jobs", submitLat.Count(), jobs)
	}
	t.Logf("soak: submit latency %v", submitLat.Summary())

	// Drop the client's pooled connections first so the server's own
	// shutdown never waits on idle keep-alives.
	httpClient.CloseIdleConnections()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := d.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	verifyLeaks()
}

// TestRestartReplayMatchesUninterrupted proves the crash-safety bar
// with the real executor: a daemon killed with work outstanding (here:
// shut down with a queued job checkpointed, the journal's crash
// image) re-runs it on restart and produces bytes identical to a run
// that was never interrupted. The SIGKILL variant of this lives in
// cmd/dicebenchd's smoke test; this covers the journal/replay half
// in-process.
func TestRestartReplayMatchesUninterrupted(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "restart.journal")
	spec := serve.JobSpec{Experiments: []string{"metrics-demo"}, Refs: 400, Scale: 12}

	want, err := serve.RunSpec(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}

	// First life: zero workers would be ideal, but the minimum is one;
	// instead submit while draining is not yet possible — so submit,
	// then shut down immediately with a zero drain budget so the job
	// is checkpointed rather than run.
	d1, _, err := serve.New(serve.Config{JournalPath: journal, QueueCap: 4, JobWorkers: 1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	d1.Shutdown(ctx)
	cancel()

	// Second life: the journal replays the unfinished job and runs it.
	d2, rep, err := serve.New(serve.Config{JournalPath: journal, QueueCap: 4, JobWorkers: 1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		d2.Shutdown(sctx)
	}()
	if len(rep.Jobs) != 1 {
		t.Fatalf("replay saw %d jobs, want 1", len(rep.Jobs))
	}
	deadline := time.Now().Add(time.Minute)
	for {
		got, err := d2.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State.Terminal() {
			if got.State != serve.StateDone {
				t.Fatalf("replayed job finished %s (%s)", got.State, got.Error)
			}
			if !got.Replayed {
				t.Fatal("job not marked replayed")
			}
			if got.Output != want {
				t.Fatalf("replayed run diverged from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got.Output), len(want))
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Example-shaped guard that the exported API stays wired: a daemon
// with persistence disabled accepts and runs a job purely in memory.
func TestInMemoryDaemonNoJournal(t *testing.T) {
	d, rep, err := serve.New(serve.Config{QueueCap: 2, JobWorkers: 1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		d.Shutdown(sctx)
	}()
	if rep != nil && len(rep.Jobs) != 0 {
		t.Fatalf("journal-less daemon replayed jobs: %+v", rep)
	}
	st, err := d.Submit(serve.JobSpec{Experiments: []string{"metrics-demo"}, Refs: 300, Scale: 12})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		got, err := d.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State.Terminal() {
			if got.State != serve.StateDone || got.Output == "" {
				t.Fatalf("in-memory job: %+v", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(fmt.Sprintf("in-memory job stuck in %s", got.State))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pollDone polls job id's status every poll until the job is
// terminal (or ctx ends) and returns that status.
func pollDone(ctx context.Context, c *client.Client, id string, poll time.Duration) (serve.JobStatus, error) {
	for {
		st, err := c.Status(ctx, id)
		if err != nil || st.State.Terminal() {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}
