// Package serve is the experiment daemon behind cmd/dicebenchd: a
// bounded job queue with explicit backpressure, per-job deadlines and
// cancellation, panic isolation, a crash-safe append-only journal,
// and an HTTP/JSON API to submit, query, and cancel experiment jobs.
//
// The robustness envelope, in one paragraph: submissions beyond the
// queue bound are rejected immediately with 429 + Retry-After (memory
// stays bounded no matter the offered load); each job runs under its
// own context with an optional deadline, so a stuck or oversized job
// times out alone; a panicking job fails alone, with the stack in its
// status, and never takes the daemon down; SIGTERM stops admission,
// drains in-flight jobs within a configured bound, and leaves queued
// jobs checkpointed in the journal; and because every job's lifecycle
// is journaled as two CRC-framed records, its submit and its finish, a
// restarted daemon — even after SIGKILL — replays the journal and
// deterministically re-enqueues the jobs that have no finish.
// Simulations are pure functions of their configuration, so a re-run
// job produces byte-identical output.
package serve

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dice/internal/experiments"
	"dice/internal/obs"
	"dice/internal/sim"
)

// JobState is the lifecycle state of a job. Terminal states are
// StateDone, StateFailed, and StateCancelled; StateInterrupted is the
// in-memory marker for a job a daemon shutdown abandoned (the journal
// holds no finish record for it, so a restart re-enqueues it).
type JobState string

// The job lifecycle: Submit puts a job in StateQueued; a worker moves
// it to StateRunning; it ends StateDone (output ready), StateFailed
// (error, deadline, or panic — see JobStatus.Error), or
// StateCancelled (client cancel). StateInterrupted marks jobs a
// shutdown abandoned mid-run; they re-run on restart.
const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateCancelled   JobState = "cancelled"
	StateInterrupted JobState = "interrupted"
)

// Terminal reports whether a state is final — no worker will touch
// the job again in this daemon process.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the client-supplied description of one job: either a
// named-experiment job (Experiments set — regenerate paper tables) or
// a batch cell job (Cells set — simulate raw sweep cells for the
// design-space-exploration engine). The zero value of every other
// field defers to the daemon's defaults, so
// {"experiments":["fig10"]} and {"cells":[{"workload":"gcc"}]} are
// complete specs. Exactly one of Experiments and Cells must be set.
type JobSpec struct {
	// Experiments lists experiment IDs (see experiments.All), or the
	// single element "all" for the full evaluation.
	Experiments []string `json:"experiments,omitempty"`
	// Cells, when non-empty, makes this a batch cell job: the daemon
	// simulates every cell (memoized and fanned out like an
	// experiment's matrix) and the job's Output is one JSON line per
	// cell, in spec order (EncodeCellResults). Bounded by
	// MaxCellsPerJob; sweeps submit multiple jobs.
	Cells []experiments.CellSpec `json:"cells,omitempty"`
	// Refs is the measured references per core (0 = daemon default).
	Refs int `json:"refs,omitempty"`
	// Scale is the system scale shift (0 = default 10). It and the
	// Fault* fields apply to experiment jobs, rewriting every cell
	// that leaves them unset; a cell job sets them per cell, and
	// Validate rejects them there.
	Scale uint `json:"scale,omitempty"`
	// Workers bounds the job's concurrent simulations (0 = one per
	// CPU, 1 = the bit-exact serial reference schedule; results are
	// byte-identical at every setting).
	Workers int `json:"workers,omitempty"`
	// DeadlineMS is the per-job wall-clock deadline in milliseconds
	// (0 = daemon default; the daemon default 0 means no deadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// FaultBER is the injected bit-error rate, 0 disables fault
	// injection (see internal/fault).
	FaultBER float64 `json:"fault_ber,omitempty"`
	// FaultSeed pins the deterministic fault stream.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// FaultPolicy selects the fault-handling policy ("" = default).
	FaultPolicy string `json:"fault_policy,omitempty"`
	// MetricsEpoch, when nonzero, attaches an epoch-metrics recorder
	// (sampling every MetricsEpoch simulated cycles) to the job's
	// simulations and emits each snapshot as an "epoch" event on the
	// job's stream (GET /jobs/{id}/stream). Recording never changes
	// results. Epoch events are live telemetry: best-effort and not
	// replayed for jobs that finished in an earlier daemon process.
	MetricsEpoch uint64 `json:"metrics_epoch,omitempty"`
}

// Validate rejects specs the daemon could only fail on mid-run or
// would silently ignore: an empty or unknown experiment list, an
// invalid cell, job-wide scale or fault settings on a cell job, a
// negative worker count or deadline, or refs, scale or fault
// parameters sim.Config.Validate rejects. Admission is the one place a bad spec
// can be turned into a 400 instead of a failed job.
func (s JobSpec) Validate() error {
	if len(s.Experiments) == 0 && len(s.Cells) == 0 {
		return fmt.Errorf("serve: job spec lists no experiments and no cells")
	}
	if len(s.Experiments) > 0 && len(s.Cells) > 0 {
		return fmt.Errorf("serve: job spec lists both experiments and cells (want one)")
	}
	if len(s.Cells) > MaxCellsPerJob {
		return fmt.Errorf("serve: job spec: %d cells exceed the per-job bound %d",
			len(s.Cells), MaxCellsPerJob)
	}
	if len(s.Cells) > 0 && (s.Scale != 0 || s.FaultBER != 0 || s.FaultSeed != 0 || s.FaultPolicy != "") {
		return fmt.Errorf("serve: job spec: scale and fault_* apply to experiment jobs; set them per cell")
	}
	for i, c := range s.Cells {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("serve: job spec: cell %d (%s): %w", i, c.Key(), err)
		}
	}
	if len(s.Experiments) > 0 && (len(s.Experiments) != 1 || s.Experiments[0] != "all") {
		for _, id := range s.Experiments {
			if _, err := experiments.ByID(id); err != nil {
				return fmt.Errorf("serve: job spec: %w", err)
			}
		}
	}
	if s.Refs < 0 {
		return fmt.Errorf("serve: job spec: refs must be >= 0, got %d", s.Refs)
	}
	if s.Workers < 0 {
		return fmt.Errorf("serve: job spec: workers must be >= 0, got %d", s.Workers)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("serve: job spec: deadline_ms must be >= 0, got %d", s.DeadlineMS)
	}
	job := sim.Config{RefsPerCore: s.Refs, ScaleShift: s.Scale, FaultBER: s.FaultBER, FaultPolicy: s.FaultPolicy}
	if err := job.Validate(); err != nil {
		return fmt.Errorf("serve: job spec: %w", err)
	}
	return nil
}

// selected resolves the spec's experiment list against the catalog.
// Validate has already vetted the IDs; a lookup failure here is a
// programming error.
func (s JobSpec) selected() []experiments.Experiment {
	if len(s.Experiments) == 1 && s.Experiments[0] == "all" {
		return experiments.All()
	}
	sel := make([]experiments.Experiment, 0, len(s.Experiments))
	for _, id := range s.Experiments {
		e, err := experiments.ByID(id)
		if err != nil {
			panic(err)
		}
		sel = append(sel, e)
	}
	return sel
}

// JobStatus is the externally visible snapshot of one job, as served
// by GET /jobs/{id}. Output carries the job's report bytes once the
// job is done — identical to what `dicebench -run <experiments>`
// prints for the same settings, because both render the same Report
// values in the same order.
type JobStatus struct {
	// ID is the daemon-assigned job identifier ("j<seq>").
	ID string `json:"id"`
	// Seq is the job's journal sequence number; replay preserves it.
	Seq uint64 `json:"seq"`
	// State is the lifecycle state (see JobState).
	State JobState `json:"state"`
	// Spec echoes the submitted job spec.
	Spec JobSpec `json:"spec"`
	// Output is the rendered report text (terminal states only; empty
	// if the retention cap evicted it — the journal still has it).
	Output string `json:"output,omitempty"`
	// OutputDropped is set when the in-memory retention cap evicted
	// this job's output.
	OutputDropped bool `json:"output_dropped,omitempty"`
	// Error describes the failure for StateFailed (deadline, panic
	// with stack, or run error) and the reason for StateCancelled.
	Error string `json:"error,omitempty"`
	// Replayed marks a job restored from the journal by a restart
	// rather than submitted to this process.
	Replayed bool `json:"replayed,omitempty"`
	// SubmittedAt is the admission wall-clock time (zero on replayed
	// jobs: the journal keeps states, not the original times).
	SubmittedAt time.Time `json:"submitted_at,omitempty"`
	// StartedAt is when a worker picked the job up (zero until then).
	StartedAt time.Time `json:"started_at,omitempty"`
	// FinishedAt is when the job reached a terminal state.
	FinishedAt time.Time `json:"finished_at,omitempty"`
}

// RunSpec executes one job spec to completion and returns the report
// bytes. This is the daemon's executor and also the reference the
// tests compare against: a fresh Runner per job. Experiment jobs
// render reports in selection order, each followed by a blank line —
// exactly the table bytes `dicebench -run ...` prints. Batch cell
// jobs emit one JSON line per cell in spec order (EncodeCellResults).
// Deterministic at any Workers setting. Cancellation and deadlines
// arrive via ctx; a cancelled run returns the partial output
// alongside ctx's error.
func RunSpec(ctx context.Context, spec JobSpec, defaultRefs int) (string, error) {
	return RunSpecStream(ctx, spec, defaultRefs, nil)
}

// RunSpecStream is RunSpec with incremental delivery: when emit is
// non-nil it receives a StreamCell event the moment each cell of a
// batch job completes (in completion order — the returned Output
// stays in spec order) and a StreamEpoch event per recorded metrics
// epoch when the spec sets MetricsEpoch. emit may be called from
// concurrent worker goroutines and must be safe for concurrent use;
// the daemon passes the job's stream buffer, which serializes
// internally. Final output bytes are identical with and
// without emit (delivery is observation, not computation); without
// emit no epochs are recorded, since nothing would read them.
func RunSpecStream(ctx context.Context, spec JobSpec, defaultRefs int, emit func(StreamEvent)) (string, error) {
	refs := spec.Refs
	if refs == 0 {
		refs = defaultRefs
	}
	r := experiments.NewRunner(refs)
	r.Workers = spec.Workers
	if spec.MetricsEpoch > 0 && emit != nil {
		r.Observe = func(key string) *obs.Observer {
			return &obs.Observer{Rec: obs.NewRecorder(spec.MetricsEpoch, func(s obs.Snapshot) {
				emit(StreamEvent{Kind: StreamEpoch, Epoch: &obs.EpochLine{Key: key, Snap: s}})
			})}
		}
	}

	if len(spec.Cells) > 0 {
		var done func(int, sim.Result)
		if emit != nil {
			done = func(i int, res sim.Result) {
				cr := CellResultFrom(spec.Cells[i].Key(), res)
				emit(StreamEvent{Kind: StreamCell, Cell: &cr})
			}
		}
		res, err := r.RunCells(ctx, spec.Cells, done)
		// Spec order; a cell a cancel skipped is absent.
		results := make([]CellResult, 0, len(spec.Cells))
		for _, c := range spec.Cells {
			if v, ok := res[c.Key()]; ok {
				results = append(results, CellResultFrom(c.Key(), v))
			}
		}
		var b strings.Builder
		if eerr := EncodeCellResults(&b, results); eerr != nil {
			return "", eerr
		}
		return b.String(), err
	}

	job := experiments.CellSpec{Scale: spec.Scale, BER: spec.FaultBER, FaultSeed: spec.FaultSeed, FaultPolicy: spec.FaultPolicy}
	reports, err := experiments.RunAllCtx(ctx, r, spec.selected(), job)
	var b strings.Builder
	for _, rep := range reports {
		b.WriteString(rep.String())
		b.WriteByte('\n')
	}
	return b.String(), err
}

// job is the daemon's internal job record: the public status plus the
// cancellation plumbing. Mutable fields are guarded by the daemon's
// mutex.
type job struct {
	status JobStatus
	// cancel cancels the job's run context (nil until running).
	cancel context.CancelFunc
	// cancelRequested marks a client cancel: a queued job is finished
	// by Cancel and the worker discards it on dequeue; a running job's
	// context is cancelled and runJob records the outcome.
	cancelRequested bool
	// shutdownAbandon marks that the run context was cancelled by
	// daemon shutdown, not by a client or deadline: the worker must
	// leave the job unfinished in the journal (StateInterrupted) so a
	// restart re-runs it.
	shutdownAbandon bool
	// prog is the job's live stream buffer (nil for jobs that finished
	// in an earlier process — their streams are synthesized from the
	// status — and for jobs whose buffer retention evicted).
	prog *progress
}
