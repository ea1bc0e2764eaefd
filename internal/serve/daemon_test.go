package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dice/internal/leakcheck"
)

// Daemon unit tests. These run with a controllable fake executor
// (package-internal access to Config.execute) so queue-full, deadline,
// panic, cancel, and drain timing are deterministic rather than
// dependent on simulation wall-clock. The end-to-end paths with the
// real executor live in soak_test.go and cmd/dicebenchd's smoke test.

// testDaemon builds a daemon on a temp journal and registers cleanup.
func testDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.JournalPath == "" {
		cfg.JournalPath = tmpJournal(t)
	}
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return d
}

// blockingExec returns an executor that signals started and blocks
// until released or its context ends (returning ctx.Err() like the
// real RunAllCtx-based executor does).
func blockingExec(started chan<- string, release <-chan struct{}) func(context.Context, JobSpec, func(StreamEvent)) (string, error) {
	return func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) {
		select {
		case started <- spec.Experiments[0]:
		default:
		}
		select {
		case <-release:
			return "released:" + spec.Experiments[0], nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, d *Daemon, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := d.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func mustSubmit(t *testing.T, d *Daemon, spec JobSpec) JobStatus {
	t.Helper()
	st, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// Admission beyond QueueCap must fail fast with ErrQueueFull (and 429
// + Retry-After over HTTP) while earlier jobs are unaffected — the
// backpressure contract: bounded queue, never bounded-less memory.
func TestBackpressureQueueFull(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	d := testDaemon(t, Config{QueueCap: 2, JobWorkers: 1, execute: blockingExec(started, release)})

	spec := JobSpec{Experiments: []string{"fig4"}}
	running := mustSubmit(t, d, spec)
	<-started // the worker holds job 1; the queue is empty again
	q1 := mustSubmit(t, d, spec)
	q2 := mustSubmit(t, d, spec)

	if _, err := d.Submit(spec); err != ErrQueueFull {
		t.Fatalf("submit over capacity: err = %v, want ErrQueueFull", err)
	}
	if st := d.Stats(); st.Rejected != 1 || st.QueueDepth != 2 || st.MaxQueueDepth != 2 {
		t.Fatalf("stats after rejection: %+v", st)
	}

	// Over HTTP the same rejection is a 429 with Retry-After.
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"experiments":["fig4"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(release)
	for _, id := range []string{running.ID, q1.ID, q2.ID} {
		if st := waitState(t, d, id, StateDone); !strings.HasPrefix(st.Output, "released:") {
			t.Fatalf("job %s output %q", id, st.Output)
		}
	}
	if st := d.Stats(); st.Done != 3 || st.QueueDepth != 0 || st.Active != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// A job that overruns its deadline fails alone, with the deadline in
// its error, and the worker moves on to the next job.
func TestDeadlineEnforced(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	d := testDaemon(t, Config{QueueCap: 4, JobWorkers: 1, execute: blockingExec(started, release)})

	slow := mustSubmit(t, d, JobSpec{Experiments: []string{"fig4"}, DeadlineMS: 30})
	st := waitState(t, d, slow.ID, StateFailed)
	if !strings.Contains(st.Error, "deadline exceeded") {
		t.Fatalf("deadline failure error = %q", st.Error)
	}

	// The worker survives to run the next job.
	quick := mustSubmit(t, d, JobSpec{Experiments: []string{"fig4"}})
	<-started
	go func() { release <- struct{}{} }()
	waitState(t, d, quick.ID, StateDone)
	if s := d.Stats(); s.Failed != 1 || s.Done != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// A panicking job must fail alone — stack captured in its status —
// and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	d := testDaemon(t, Config{
		QueueCap: 4, JobWorkers: 1,
		execute: func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) {
			if spec.Experiments[0] == "fig4" {
				panic("synthetic job crash")
			}
			return "survived", nil
		},
	})

	crash := mustSubmit(t, d, JobSpec{Experiments: []string{"fig4"}})
	st := waitState(t, d, crash.ID, StateFailed)
	if !strings.Contains(st.Error, "panic: synthetic job crash") {
		t.Fatalf("panic not captured: %q", st.Error)
	}
	if !strings.Contains(st.Error, "goroutine") {
		t.Fatalf("stack not captured: %q", st.Error)
	}

	next := mustSubmit(t, d, JobSpec{Experiments: []string{"fig10"}})
	if st := waitState(t, d, next.ID, StateDone); st.Output != "survived" {
		t.Fatalf("daemon did not survive the panic: %+v", st)
	}
}

// Cancelling a queued job finishes it without running; cancelling a
// running job cancels its context and records the partial output.
func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	d := testDaemon(t, Config{QueueCap: 4, JobWorkers: 1, execute: blockingExec(started, release)})

	spec := JobSpec{Experiments: []string{"fig4"}}
	run := mustSubmit(t, d, spec)
	<-started
	queued := mustSubmit(t, d, spec)

	if _, err := d.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, d, queued.ID, StateCancelled)
	if !strings.Contains(st.Error, "while queued") {
		t.Fatalf("queued cancel error = %q", st.Error)
	}

	if _, err := d.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, d, run.ID, StateCancelled); !strings.Contains(st.Error, "cancelled by client") {
		t.Fatalf("running cancel error = %q", st.Error)
	}

	if _, err := d.Cancel("j999"); err != ErrNotFound {
		t.Fatalf("cancel unknown job: err = %v, want ErrNotFound", err)
	}
	// The cancelled-while-queued job must be discarded, not run: the
	// next submission proves the worker is idle and skipped it.
	again := mustSubmit(t, d, spec)
	<-started
	go func() { release <- struct{}{} }()
	waitState(t, d, again.ID, StateDone)
	if s := d.Stats(); s.Cancelled != 2 || s.Done != 1 || s.Started != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// A job's durable lifecycle is two journal records, submit and finish,
// whether it runs or is cancelled while queued: N sequential jobs plus
// one cancelled while queued — by four concurrent Cancels, which finish
// it once — leave exactly 2(N+2) acknowledged appends on /healthz,
// counting the job that held the worker.
func TestJobWritesTwoRecords(t *testing.T) {
	const n = 5
	started := make(chan string, 1)
	release := make(chan struct{})
	d := testDaemon(t, Config{QueueCap: 4, JobWorkers: 1, execute: blockingExec(started, release)})

	spec := JobSpec{Experiments: []string{"fig4"}}
	held := mustSubmit(t, d, spec)
	<-started
	queued := mustSubmit(t, d, spec)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Cancel(queued.ID); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	waitState(t, d, queued.ID, StateCancelled)
	close(release)
	waitState(t, d, held.ID, StateDone)
	for i := 0; i < n; i++ {
		waitState(t, d, mustSubmit(t, d, spec).ID, StateDone)
	}

	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Journal == nil || h.Journal.Appends != 2*(n+2) {
		t.Fatalf("journal appends = %+v, want %d", h.Journal, 2*(n+2))
	}
	if h.Stats.Started != n+1 || h.Stats.Cancelled != 1 || h.Stats.Done != n+1 {
		t.Fatalf("stats: %+v", h.Stats)
	}
}

// Graceful shutdown: admission closes (503 on submit, /readyz 503),
// the in-flight job drains, queued jobs stay checkpointed in the
// journal, and a restarted daemon re-enqueues and runs them.
func TestShutdownDrainsAndCheckpointsQueue(t *testing.T) {
	journal := tmpJournal(t)
	started := make(chan string, 1)
	release := make(chan struct{})
	d, _, err := New(Config{JournalPath: journal, QueueCap: 4, JobWorkers: 1, execute: blockingExec(started, release)})
	if err != nil {
		t.Fatal(err)
	}

	spec := JobSpec{Experiments: []string{"fig4"}}
	running := mustSubmit(t, d, spec)
	<-started
	queued := mustSubmit(t, d, spec)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- d.Shutdown(ctx)
	}()
	// Admission must close promptly even while the drain is pending.
	deadline := time.Now().Add(5 * time.Second)
	for !d.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("draining flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := d.Submit(spec); err != ErrDraining {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}

	close(release) // let the in-flight job finish the drain
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st, _ := d.Status(running.ID); st.State != StateDone {
		t.Fatalf("in-flight job drained to %s, want done", st.State)
	}
	if st, _ := d.Status(queued.ID); st.State != StateQueued {
		t.Fatalf("queued job state after shutdown = %s, want queued (checkpointed)", st.State)
	}

	// Restart: the queued job replays, re-enqueues, and runs.
	d2, rep, err := New(Config{
		JournalPath: journal, QueueCap: 4, JobWorkers: 1,
		execute: func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) { return "rerun", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d2.Shutdown(ctx)
	}()
	if len(rep.Jobs) != 2 {
		t.Fatalf("replay saw %d jobs, want 2", len(rep.Jobs))
	}
	reenqueued := 0
	for _, rj := range rep.Jobs {
		if rj.Unfinished() {
			reenqueued++
		}
	}
	if reenqueued != 1 {
		t.Fatalf("replay re-enqueued %d jobs, want 1 (only the checkpointed one)", reenqueued)
	}
	if st := waitState(t, d2, queued.ID, StateDone); st.Output != "rerun" || !st.Replayed {
		t.Fatalf("replayed job: %+v", st)
	}
	if st, _ := d2.Status(running.ID); st.State != StateDone || st.Output == "" {
		t.Fatalf("finished job lost its output across restart: %+v", st)
	}
}

// When the drain bound expires, in-flight jobs are cancelled and left
// unfinished in the journal — the checkpoint — and the restart
// re-runs them.
func TestShutdownDrainTimeoutCheckpointsInFlight(t *testing.T) {
	journal := tmpJournal(t)
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	d, _, err := New(Config{
		JournalPath: journal, QueueCap: 4, JobWorkers: 1,
		execute: blockingExec(started, release), // never released: only ctx ends it
	})
	if err != nil {
		t.Fatal(err)
	}

	st := mustSubmit(t, d, JobSpec{Experiments: []string{"fig4"}})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after drain timeout: %v", err)
	}
	if got, _ := d.Status(st.ID); got.State != StateInterrupted {
		t.Fatalf("abandoned job state = %s, want interrupted", got.State)
	}

	d2, rep, err := New(Config{
		JournalPath: journal, QueueCap: 4, JobWorkers: 1,
		execute: func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) { return "rerun", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		d2.Shutdown(sctx)
	}()
	if len(rep.Jobs) != 1 || !rep.Jobs[0].Unfinished() {
		t.Fatalf("replay of interrupted job: %+v", rep.Jobs)
	}
	waitState(t, d2, st.ID, StateDone)
}

// The HTTP surface end to end: submit → 202, status → 200 with
// output, list elides outputs, bad spec → 400, unknown id → 404,
// healthz carries the self-stats, readyz flips on drain.
func TestHTTPAPI(t *testing.T) {
	d := testDaemon(t, Config{
		QueueCap: 4, JobWorkers: 1,
		execute: func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) {
			return "report for " + spec.Experiments[0], nil
		},
	})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()

	// Submit.
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"experiments":["fig10"],"workers":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, d, st.ID, StateDone)

	// Status with output.
	resp, err = ts.Client().Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != StateDone || got.Output != "report for fig10" {
		t.Fatalf("GET /jobs/%s = %+v", st.ID, got)
	}

	// List elides outputs.
	resp, err = ts.Client().Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].Output != "" {
		t.Fatalf("GET /jobs = %+v", list)
	}

	// Bad spec and unknown id.
	resp, _ = ts.Client().Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"experiments":["no-such-experiment"]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = ts.Client().Get(ts.URL + "/jobs/j999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// healthz + readyz.
	resp, _ = ts.Client().Get(ts.URL + "/healthz")
	var h Health
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.Stats.Done != 1 || h.Self.Goroutines <= 0 {
		t.Fatalf("healthz = %+v", h)
	}
	resp, _ = ts.Client().Get(ts.URL + "/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while serving = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ = ts.Client().Get(ts.URL + "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// Output retention must stay bounded: with RetainOutputs=2, the
// oldest terminal job loses its bytes (journal keeps them) and is
// flagged output_dropped.
func TestOutputRetentionBounded(t *testing.T) {
	d := testDaemon(t, Config{
		QueueCap: 8, JobWorkers: 1, RetainOutputs: 2,
		execute: func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) {
			return "output-" + spec.Experiments[0], nil
		},
	})
	ids := []string{}
	for _, e := range []string{"fig4", "fig10", "table4"} {
		st := mustSubmit(t, d, JobSpec{Experiments: []string{e}})
		waitState(t, d, st.ID, StateDone)
		ids = append(ids, st.ID)
	}
	first, _ := d.Status(ids[0])
	if first.Output != "" || !first.OutputDropped {
		t.Fatalf("oldest output not evicted: %+v", first)
	}
	for _, id := range ids[1:] {
		st, _ := d.Status(id)
		if st.Output == "" || st.OutputDropped {
			t.Fatalf("recent output evicted: %+v", st)
		}
	}
}

// Start/Shutdown cycles must not leak goroutines — workers, the HTTP
// server, and the journal all shut down clean.
func TestDaemonStartStopNoGoroutineLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	for i := 0; i < 3; i++ {
		d, _, err := New(Config{
			JournalPath: tmpJournal(t), QueueCap: 4, JobWorkers: 2,
			execute: func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) { return "ok", nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := d.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		st := mustSubmit(t, d, JobSpec{Experiments: []string{"fig4"}})
		waitState(t, d, st.ID, StateDone)
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := d.Shutdown(ctx); err != nil {
			t.Fatalf("cycle %d shutdown: %v", i, err)
		}
		cancel()
	}
	http.DefaultClient.CloseIdleConnections()
}
