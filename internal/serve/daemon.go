package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"dice/internal/commitlog"
	"dice/internal/obs"
)

// Sentinel errors the HTTP layer maps to status codes; exported so
// programmatic users of Submit/Cancel can distinguish them too.
var (
	// ErrQueueFull is returned when admission would exceed the queue
	// bound; the HTTP layer maps it to 429 + Retry-After.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining is returned once shutdown has begun; the HTTP layer
	// maps it to 503.
	ErrDraining = errors.New("serve: daemon is draining")
	// ErrNotFound is returned for an unknown job ID (404).
	ErrNotFound = errors.New("serve: no such job")
)

// abandonSlack bounds how long Shutdown waits, after cancelling
// in-flight jobs at the drain deadline, for their workers to observe
// the cancellation (granularity: one simulation cell).
const abandonSlack = 30 * time.Second

// The daemon's fixed HTTP and stream limits.
const (
	// httpReadHeaderTimeout bounds how long a connection may take to
	// send its request headers before being dropped — the slowloris
	// defense.
	httpReadHeaderTimeout = 5 * time.Second
	// httpReadTimeout bounds reading one whole request, body included
	// (specs are capped at maxSpecBytes anyway).
	httpReadTimeout = time.Minute
	// httpIdleTimeout bounds how long an idle keep-alive connection is
	// kept open.
	httpIdleTimeout = 2 * time.Minute
	// httpWriteTimeout bounds writing one non-streaming response. It is
	// applied per request via ResponseController, NOT as
	// http.Server.WriteTimeout — a server-wide write timeout would kill
	// long-lived /stream responses.
	httpWriteTimeout = time.Minute
	// streamWriteTimeout bounds each individual write on a job stream:
	// a streaming client that stops reading is dropped — the job itself
	// is unaffected and the client can reconnect (and is served the
	// sequence again from the first event).
	streamWriteTimeout = 15 * time.Second
	// streamBufferCap bounds each job's in-memory stream event buffer.
	// Cell and done events always fit (cells are bounded by
	// MaxCellsPerJob); epoch events beyond the cap are dropped — they
	// are best-effort telemetry.
	streamBufferCap = 1 << 16
)

// Config parameterizes a Daemon. Zero values take the documented
// defaults.
type Config struct {
	// JournalPath is the crash-safe job journal ("" = no persistence:
	// jobs live only in memory and a restart forgets them).
	JournalPath string
	// QueueCap bounds the number of queued-but-not-started jobs
	// (default 64). Submissions beyond it fail with ErrQueueFull —
	// the explicit backpressure signal — rather than growing memory.
	QueueCap int
	// JobWorkers is how many jobs run concurrently (default 1). Each
	// job additionally fans its simulations out per its spec's
	// Workers field; results are byte-identical at any setting.
	JobWorkers int
	// DefaultRefs is the per-core reference budget for specs that
	// leave Refs zero (default 60000, matching dicebench).
	DefaultRefs int
	// DefaultDeadline applies to specs that leave DeadlineMS zero
	// (0 = no deadline).
	DefaultDeadline time.Duration
	// RetainOutputs caps how many terminal jobs keep their output
	// bytes and stream buffer in memory (default 256). Older outputs
	// are evicted from the status map — the journal still holds them.
	// The cap bounds only those bytes: the job table itself (d.jobs and
	// d.order) still keeps one entry per job ever submitted, so a
	// long-lived daemon's memory grows with its history (see the job
	// table item in ROADMAP.md).
	RetainOutputs int
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)

	// readHeaderTimeout overrides httpReadHeaderTimeout when positive
	// (tests shorten it to exercise the slowloris defense).
	readHeaderTimeout time.Duration
	// openLog opens the journal's commit log (nil = commitlog.Open).
	// The group-commit A/B guards swap in the fsync-per-append
	// reference discipline and a fixed-cost sync (tests only; see
	// export_test.go).
	openLog func(path string, apply func(payload []byte) bool) (*commitlog.Log, commitlog.Replay, error)
}

// Daemon is the experiment job daemon: a bounded queue feeding
// JobWorkers workers, a journal, and an HTTP handler. Create with
// New, serve with Start (or mount Handler yourself), stop with
// Shutdown.
type Daemon struct {
	cfg     Config
	journal *Journal
	execute func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error)

	queue       chan *job
	stopPick    chan struct{}
	stopStreams chan struct{}
	workers     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission/replay order, for GET /jobs
	retained []string // terminal jobs still holding output, oldest first
	depth    int      // queued jobs (reserved admission slots)
	maxDepth int
	active   int
	seq      uint64
	draining bool
	stopped  bool
	stats    statsCounters

	srv   *http.Server
	start time.Time
}

// statsCounters are the daemon's monotone self-stats, guarded by
// Daemon.mu (every mutation site already holds it).
type statsCounters struct {
	submitted, rejected, started uint64
	done, failed, cancelled      uint64
	replayed, epochsDropped      uint64
}

// Stats is a point-in-time snapshot of the daemon's self-stats, as
// exposed on /healthz (see METRICS.md "Daemon self-stats").
type Stats struct {
	// Submitted counts accepted submissions (replayed re-enqueues
	// excluded).
	Submitted uint64 `json:"jobs_submitted"`
	// Rejected counts ErrQueueFull backpressure rejections.
	Rejected uint64 `json:"jobs_rejected"`
	// Started counts jobs a worker picked up in this process.
	Started uint64 `json:"jobs_started"`
	// Done counts jobs that finished successfully.
	Done uint64 `json:"jobs_done"`
	// Failed counts jobs that errored, panicked, or overran a deadline.
	Failed uint64 `json:"jobs_failed"`
	// Cancelled counts jobs cancelled by clients.
	Cancelled uint64 `json:"jobs_cancelled"`
	// Replayed counts jobs restored from the journal on startup.
	Replayed uint64 `json:"jobs_replayed"`
	// StreamEpochsDropped counts epoch events that finished jobs'
	// stream buffers dropped at the streamBufferCap bound.
	StreamEpochsDropped uint64 `json:"stream_epochs_dropped"`
	// QueueDepth is the current number of queued jobs.
	QueueDepth int `json:"queue_depth"`
	// MaxQueueDepth is the queue-depth high-water mark.
	MaxQueueDepth int `json:"queue_max_depth"`
	// QueueCap is the configured queue bound.
	QueueCap int `json:"queue_cap"`
	// Active is the number of jobs running right now.
	Active int `json:"jobs_active"`
}

// New builds a Daemon, replays its journal (re-enqueueing every job
// the previous process never finished, in sequence order), and starts
// the job workers. The returned Replay reports what was restored; nil
// when cfg.JournalPath is empty.
func New(cfg Config) (*Daemon, *Replay, error) {
	return newDaemon(cfg, nil)
}

// newDaemon is New with the job executor as a parameter; nil runs each
// job through RunSpecStream. A test's executor is thus in place before
// the workers start, so a replayed job never reaches the real one.
func newDaemon(cfg Config, execute func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error)) (*Daemon, *Replay, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	if cfg.DefaultRefs <= 0 {
		cfg.DefaultRefs = 60_000
	}
	if cfg.RetainOutputs <= 0 {
		cfg.RetainOutputs = 256
	}
	if cfg.readHeaderTimeout <= 0 {
		cfg.readHeaderTimeout = httpReadHeaderTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	var (
		journal *Journal
		rep     *Replay
		err     error
	)
	if cfg.JournalPath != "" {
		journal, rep, err = openJournal(cfg.JournalPath, cfg.openLog)
		if err != nil {
			return nil, nil, err
		}
	}

	d := &Daemon{
		cfg:         cfg,
		journal:     journal,
		jobs:        make(map[string]*job),
		stopPick:    make(chan struct{}),
		stopStreams: make(chan struct{}),
		seq:         1,
		start:       time.Now(),
	}
	d.execute = execute
	if d.execute == nil {
		d.execute = func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) {
			return RunSpecStream(ctx, spec, d.cfg.DefaultRefs, emit)
		}
	}

	// The channel needs room for the admission bound plus whatever
	// backlog replay restores (the backlog was itself admitted under
	// the bound by the previous process, so memory stays bounded).
	backlog := 0
	if rep != nil {
		for _, rj := range rep.Jobs {
			if rj.Unfinished() {
				backlog++
			}
		}
	}
	d.queue = make(chan *job, cfg.QueueCap+backlog)

	if rep != nil {
		d.restore(rep)
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		d.workers.Add(1)
		go d.worker()
	}
	return d, rep, nil
}

// restore rebuilds the job table from a journal replay: finished jobs
// become queryable terminal statuses; unfinished ones re-enter the
// queue in sequence order and will re-run. Simulations are pure
// functions of their spec, so the re-run's output is byte-identical
// to what the interrupted run would have produced.
func (d *Daemon) restore(rep *Replay) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq = rep.NextSeq
	for _, rj := range rep.Jobs {
		jb := &job{status: JobStatus{
			ID: rj.ID, Seq: rj.Seq, Spec: rj.Spec, Replayed: true,
		}}
		d.stats.replayed++
		if rj.Finished {
			jb.status.State = rj.State
			jb.status.Output = rj.Output
			jb.status.Error = rj.Error
			// No live stream buffer: streams of journal-finished jobs
			// are synthesized from the status.
			d.jobs[rj.ID] = jb
			d.order = append(d.order, rj.ID)
			d.retainLocked(jb)
			continue
		}
		jb.status.State = StateQueued
		d.admitLocked(jb)
		d.queue <- jb // capacity reserved for the backlog in New
		d.cfg.Logf("serve: replay re-enqueued %s (%v)", rj.ID, rj.Spec.Experiments)
	}
	if rep.TruncatedBytes > 0 {
		d.cfg.Logf("serve: journal: dropped %d bytes of torn tail", rep.TruncatedBytes)
	}
}

// Submit admits one job: validate, journal, enqueue. It fails fast
// with ErrQueueFull once QueueCap jobs are waiting (the backpressure
// contract — memory never grows with offered load) and ErrDraining
// once shutdown has begun.
func (d *Daemon) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	if d.depth >= d.cfg.QueueCap {
		d.stats.rejected++
		d.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
	seq := d.seq
	d.seq++
	id := fmt.Sprintf("j%d", seq)
	jb := &job{status: JobStatus{
		ID: id, Seq: seq, State: StateQueued, Spec: spec, SubmittedAt: time.Now(),
	}}
	d.admitLocked(jb)
	d.stats.submitted++
	// Enqueue the journal record while holding the lock — that stakes
	// the record's place in journal file order, so a job's submit
	// record always precedes its finish record (neither a Cancel nor a
	// worker can reach the job before this unlock and the queue send
	// below). The fsync itself is awaited AFTER unlocking: holding d.mu
	// across the sync would serialize concurrent submits and defeat
	// group commit.
	ticket := d.journal.enqueue(record{T: "submit", ID: id, Seq: seq, Spec: &spec})
	st := jb.status
	d.mu.Unlock()

	if err := ticket.Wait(); err != nil {
		// Admission without a durable record would break the restart
		// contract; undo and surface the error. The job was transiently
		// visible to Status while the sync was in flight — harmless, it
		// never reached a worker.
		d.mu.Lock()
		delete(d.jobs, id)
		for i := len(d.order) - 1; i >= 0; i-- {
			if d.order[i] == id {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
		d.depth--
		d.mu.Unlock()
		return JobStatus{}, err
	}

	d.queue <- jb // never blocks: depth reservation <= channel capacity
	d.cfg.Logf("serve: %s submitted (%v)", id, spec.Experiments)
	return st, nil
}

// admitLocked takes a queue slot for jb (raising the depth high-water
// mark), gives it a fresh stream buffer, and enters it in the job table
// and the listing order. The caller sends jb to d.queue once its submit
// record is durable: restore at once, Submit after its fsync. Caller
// holds d.mu.
func (d *Daemon) admitLocked(jb *job) {
	d.depth++
	d.maxDepth = max(d.maxDepth, d.depth)
	jb.prog = newProgress(streamBufferCap)
	d.jobs[jb.status.ID] = jb
	d.order = append(d.order, jb.status.ID)
}

// worker pulls jobs until shutdown. The stopPick channel — not queue
// closure — ends the loop, so queued jobs survive in the channel (and
// in the journal) as the shutdown checkpoint.
func (d *Daemon) worker() {
	defer d.workers.Done()
	for {
		select {
		case <-d.stopPick:
			return
		default:
		}
		select {
		case <-d.stopPick:
			return
		case jb := <-d.queue:
			d.mu.Lock()
			d.depth--
			skip := jb.cancelRequested // cancelled while queued: Cancel finishes it
			if !skip {
				jb.status.State = StateRunning
				jb.status.StartedAt = time.Now()
				d.active++
				d.stats.started++
			}
			d.mu.Unlock()
			if skip {
				continue
			}
			d.runJob(jb)
		}
	}
}

// runJob executes one job under its own context, with panic isolation
// and deadline enforcement, then records the outcome.
func (d *Daemon) runJob(jb *job) {
	spec := jb.status.Spec
	ctx, cancel := context.WithCancel(context.Background())
	deadline := d.cfg.DefaultDeadline
	if spec.DeadlineMS > 0 {
		deadline = time.Duration(spec.DeadlineMS) * time.Millisecond
	}
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	}
	defer cancel()

	d.mu.Lock()
	jb.cancel = cancel
	requested := jb.cancelRequested
	d.mu.Unlock()
	if requested {
		// A cancel raced the dequeue (it saw StateRunning before the
		// cancel func was registered); honor it before doing work.
		cancel()
	}

	emit := func(StreamEvent) {}
	if jb.prog != nil {
		emit = jb.prog.add
	}

	// Panic isolation: a crashing job fails alone, with its stack in
	// the status, and the worker (and daemon) live on.
	output, err := func() (out string, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			}
		}()
		return d.execute(ctx, spec, emit)
	}()

	d.mu.Lock()
	abandoned := jb.shutdownAbandon
	userCancelled := jb.cancelRequested
	d.mu.Unlock()

	switch {
	case abandoned && err != nil:
		// Shutdown took the context away: leave the journal without a
		// finish record so a restart re-runs the job (checkpoint). The
		// stream buffer stays open too — no done event is emitted, and
		// blocked streamers wake on stopStreams; the restarted daemon
		// streams the re-run from its first event.
		d.mu.Lock()
		jb.status.State = StateInterrupted
		jb.status.Error = "interrupted by daemon shutdown; will re-run on restart"
		d.active--
		d.mu.Unlock()
		d.cfg.Logf("serve: %s interrupted by shutdown", jb.status.ID)
	case err == nil:
		d.finish(jb, StateDone, output, "")
	case userCancelled && errors.Is(err, context.Canceled):
		d.finish(jb, StateCancelled, output, "cancelled by client")
	case errors.Is(err, context.DeadlineExceeded):
		d.finish(jb, StateFailed, output, fmt.Sprintf("deadline exceeded after %v", deadline))
	default:
		d.finish(jb, StateFailed, output, err.Error())
	}
}

// finish is the one way a job reaches a terminal state, run or
// cancelled while queued: it journals the finish record, sets the
// status, updates the counters, applies output retention, and closes
// the job's stream with the done event. It returns the final status.
func (d *Daemon) finish(jb *job, state JobState, output, errMsg string) JobStatus {
	if jerr := d.journal.append(record{
		T: "finish", ID: jb.status.ID, State: state, Output: output, Error: errMsg,
	}); jerr != nil {
		// The in-memory state is still authoritative for this process;
		// a restart will re-run the job, which is safe (deterministic)
		// if wasteful.
		d.cfg.Logf("serve: %s: journal finish failed: %v", jb.status.ID, jerr)
	}
	d.mu.Lock()
	wasRunning := jb.status.State == StateRunning
	jb.status.State = state
	jb.status.Output = output
	jb.status.Error = errMsg
	jb.status.FinishedAt = time.Now()
	if wasRunning {
		d.active--
	}
	switch state {
	case StateDone:
		d.stats.done++
	case StateFailed:
		d.stats.failed++
	case StateCancelled:
		d.stats.cancelled++
	}
	d.retainLocked(jb)
	if jb.prog != nil {
		d.stats.epochsDropped += jb.prog.finish(state, errMsg)
	}
	st := jb.status
	d.mu.Unlock()
	d.cfg.Logf("serve: %s %s", st.ID, state)
	return st
}

// retainLocked enforces the bounded-output retention: the newest
// RetainOutputs terminal jobs keep their output bytes and stream
// buffer, older ones are evicted to the journal (their streams
// degrade to the synthesized done-only replay). Caller holds d.mu.
func (d *Daemon) retainLocked(jb *job) {
	if jb.status.Output == "" && jb.prog == nil {
		return
	}
	d.retained = append(d.retained, jb.status.ID)
	for len(d.retained) > d.cfg.RetainOutputs {
		old := d.jobs[d.retained[0]]
		d.retained = d.retained[1:]
		if old == nil {
			continue
		}
		if old.status.Output != "" {
			old.status.Output = ""
			old.status.OutputDropped = true
		}
		old.prog = nil
	}
}

// Cancel cancels a job: a queued job is finished as cancelled on the
// spot (the worker discards it on dequeue, so no later record for it
// can exist); a running job has its context cancelled and the worker
// records the outcome. Cancelling a terminal job, or a queued one a
// concurrent Cancel is already finishing, is a no-op returning its
// status.
func (d *Daemon) Cancel(id string) (JobStatus, error) {
	d.mu.Lock()
	jb, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	switch {
	case jb.status.State == StateQueued && !jb.cancelRequested:
		jb.cancelRequested = true
		d.mu.Unlock()
		return d.finish(jb, StateCancelled, "", "cancelled by client while queued"), nil
	case jb.status.State == StateRunning:
		jb.cancelRequested = true
		cancel := jb.cancel
		st := jb.status
		d.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return st, nil
	default:
		st := jb.status
		d.mu.Unlock()
		return st, nil
	}
}

// Status returns one job's status.
func (d *Daemon) Status(id string) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	jb, ok := d.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return jb.status, nil
}

// Statuses returns every job's status in submission order, with
// outputs elided (fetch a single job for its output).
func (d *Daemon) Statuses() []JobStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobStatus, 0, len(d.order))
	for _, id := range d.order {
		st := d.jobs[id].status
		st.Output = ""
		out = append(out, st)
	}
	return out
}

// Stats snapshots the daemon's self-stats.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Submitted: d.stats.submitted, Rejected: d.stats.rejected,
		Started: d.stats.started, Done: d.stats.done,
		Failed: d.stats.failed, Cancelled: d.stats.cancelled,
		Replayed: d.stats.replayed, StreamEpochsDropped: d.stats.epochsDropped,
		QueueDepth: d.depth, MaxQueueDepth: d.maxDepth,
		QueueCap: d.cfg.QueueCap, Active: d.active,
	}
}

// Draining reports whether shutdown has begun (admission closed).
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Start listens on addr ("" or host:0 pick an ephemeral port) and
// serves the HTTP API until Shutdown. It returns the bound address.
func (d *Daemon) Start(addr string) (net.Addr, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// WriteTimeout stays zero on purpose: it would cut long-lived
	// /stream responses. Non-streaming responses get a per-request
	// write deadline in Handler, and streams a per-write deadline in
	// handleStream.
	d.srv = &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: d.cfg.readHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
	go d.srv.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown stops the daemon within a bound: admission closes
// immediately (submits → 503, /readyz → 503), workers finish their
// current job and exit, and queued jobs stay checkpointed in the
// journal for the next start. If ctx expires before the drain
// completes, in-flight jobs are cancelled and left unfinished in the
// journal — also checkpointed — and Shutdown waits a short slack for
// the workers to observe it. Safe to call more than once.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return nil
	}
	d.stopped = true
	d.draining = true
	d.mu.Unlock()
	close(d.stopPick)

	done := make(chan struct{})
	go func() {
		d.workers.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		// Drain bound reached: checkpoint the in-flight jobs by
		// cancelling their contexts without journaling a finish.
		d.mu.Lock()
		var cancels []context.CancelFunc
		for _, id := range d.order {
			jb := d.jobs[id]
			if jb.status.State == StateRunning {
				jb.shutdownAbandon = true
				if jb.cancel != nil {
					cancels = append(cancels, jb.cancel)
				}
			}
		}
		d.mu.Unlock()
		for _, cancel := range cancels {
			cancel()
		}
		select {
		case <-done:
		case <-time.After(abandonSlack):
			drainErr = fmt.Errorf("serve: %d jobs still running %v after cancellation", len(cancels), abandonSlack)
		}
	}

	// Wake every blocked streamer so the HTTP shutdown below is not
	// held open by long-lived /stream responses.
	close(d.stopStreams)

	if d.srv != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := d.srv.Shutdown(sctx); err != nil && drainErr == nil {
			drainErr = fmt.Errorf("serve: http shutdown: %w", err)
		}
	}
	if err := d.journal.Close(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs               submit (202; 429 + Retry-After on queue-full; 503 draining)
//	GET    /jobs               list statuses, outputs elided
//	GET    /jobs/{id}          one status, output included
//	GET    /jobs/{id}/stream   NDJSON event stream, always from the first event (see stream.go)
//	DELETE /jobs/{id}          cancel
//	GET    /healthz            process self-stats + daemon counters (always 200 while serving)
//	GET    /readyz             200 while admitting, 503 once draining
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", d.handleList)
	mux.HandleFunc("GET /jobs/{id}", d.handleGet)
	mux.HandleFunc("GET /jobs/{id}/stream", d.handleStream)
	mux.HandleFunc("DELETE /jobs/{id}", d.handleCancel)
	mux.HandleFunc("GET /healthz", d.handleHealth)
	mux.HandleFunc("GET /readyz", d.handleReady)
	return d.withWriteDeadline(mux)
}

// withWriteDeadline bounds response writes for the non-streaming
// endpoints via ResponseController (streams manage their own
// per-write deadlines in handleStream). Writers that do not support
// deadlines — httptest recorders — are silently unbounded.
func (d *Daemon) withWriteDeadline(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/stream") {
			_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(httpWriteTimeout))
		}
		h.ServeHTTP(w, r)
	})
}

// handleStream serves GET /jobs/{id}/stream: the job's event sequence
// as framed NDJSON, flushed as events arrive, blocking while the job
// runs. Every connection starts at the first event; a reconnecting
// client skips what it already delivered (see stream.go's delivery
// contract).
func (d *Daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d.mu.Lock()
	jb, ok := d.jobs[id]
	var prog *progress
	var st JobStatus
	if ok {
		prog = jb.prog
		st = jb.status
	}
	d.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, ErrNotFound)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush() // headers out before the first (possibly delayed) event

	if prog == nil {
		// The live buffer is gone (job finished in a previous process,
		// or retention evicted it): serve the synthesized replay.
		d.writeStreamEvents(w, rc, synthesizeStream(st))
		return
	}

	for next := 0; ; {
		evs, closed, wait := prog.snapshot(next)
		if len(evs) > 0 {
			if err := d.writeStreamEvents(w, rc, evs); err != nil {
				return // client gone or stalled past streamWriteTimeout
			}
			next += len(evs)
		}
		if closed {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		case <-d.stopStreams:
			return
		}
	}
}

// writeStreamEvents writes a batch of framed events, arming the
// per-write streamWriteTimeout deadline before each one, and flushes
// once at the end of the batch.
func (d *Daemon) writeStreamEvents(w http.ResponseWriter, rc *http.ResponseController, evs []StreamEvent) error {
	for _, ev := range evs {
		line, err := EncodeStreamEvent(ev)
		if err != nil {
			return err
		}
		// Ignore ErrNotSupported (httptest recorders); real
		// connections enforce the deadline.
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	rc.Flush()
	return nil
}

// maxSpecBytes bounds a submitted spec body; anything bigger is a
// client error, not a reason to grow daemon memory.
const maxSpecBytes = 1 << 20

// decodeSpec reads one job spec from a submitted body: at most
// maxSpecBytes, no unknown fields, and nothing but whitespace after
// the spec, so a body holding a second value or trailing bytes is
// refused rather than half read. It does not validate the spec.
func decodeSpec(w http.ResponseWriter, body io.ReadCloser) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("serve: bad job spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, fmt.Errorf("serve: bad job spec: data after the spec")
	}
	return spec, nil
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(w, r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := d.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Statuses())
}

func (d *Daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := d.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := d.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// Health is the /healthz payload: process self-stats (internal/obs)
// plus the daemon's job counters.
type Health struct {
	// Status is "ok" whenever the handler answers.
	Status string `json:"status"`
	// UptimeMS is milliseconds since the daemon was constructed.
	UptimeMS int64 `json:"uptime_ms"`
	// Draining is true once shutdown has closed admission.
	Draining bool `json:"draining"`
	// Self carries goroutine/allocation/GC self-stats.
	Self obs.SelfStatus `json:"self"`
	// Stats carries the daemon's job and queue counters.
	Stats Stats `json:"stats"`
	// Journal carries the journal's group-commit counters (see
	// METRICS.md "Commit-log counters"); omitted when the daemon runs
	// without persistence.
	Journal *commitlog.Stats `json:"journal,omitempty"`
}

func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:   "ok",
		UptimeMS: time.Since(d.start).Milliseconds(),
		Draining: d.Draining(),
		Self:     obs.CaptureSelf(),
		Stats:    d.Stats(),
		Journal:  d.journal.Stats(),
	})
}

func (d *Daemon) handleReady(w http.ResponseWriter, r *http.Request) {
	if d.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr writes a JSON error envelope.
func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
