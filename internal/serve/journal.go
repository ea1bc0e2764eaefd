package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"dice/internal/commitlog"
)

// The journal is the daemon's crash-safety backbone: an append-only
// file of one JSON record per line, each prefixed with its CRC-32C
// (the same Castagnoli polynomial the compressed-line checksums use).
// Every job writes at most two records — submit (with the full spec)
// and finish (with the final state and output) — so the file replays
// into the exact job table at the moment of the crash: a submit
// without a finish is a job the crash interrupted, queued or running,
// and the daemon re-enqueues it in sequence order.
//
// Durability and framing live in internal/commitlog, which group-
// commits appends: concurrent submits enqueue records and share one
// write+fsync, so N simultaneous submits pay ~1 sync instead of N. An
// acknowledged record has still always been fsynced, and torn writes
// are still expected (SIGKILL can land mid-append): replay accepts
// the longest valid prefix and truncates the rest before the daemon
// appends again. A mismatched CRC therefore never poisons the file;
// it just marks where the crash cut it.

// record is one journal line. T is "submit" or "finish"; the other
// fields are populated per type (Seq and Spec on submit; State,
// Output and Error on finish). Replay ignores any other type, so the
// "start" lines of journals written before the two-record format are
// valid records that change nothing.
type record struct {
	T      string   `json:"t"`
	ID     string   `json:"id"`
	Seq    uint64   `json:"seq,omitempty"`
	Spec   *JobSpec `json:"spec,omitempty"`
	State  JobState `json:"state,omitempty"`
	Output string   `json:"output,omitempty"`
	Error  string   `json:"error,omitempty"`
}

// Journal is the append handle over the shared commit log. Safe for
// concurrent use; file order equals enqueue order, so a job's submit
// record, enqueued before the job can reach a worker or a Cancel,
// precedes its finish record on disk.
type Journal struct {
	log *commitlog.Log
}

// Replay is what a journal file parses back into: the job table in
// submission order, the next unused sequence number, and how many
// bytes of torn tail were discarded.
type Replay struct {
	// Jobs holds one entry per valid submit record, in sequence order.
	Jobs []ReplayJob
	// NextSeq is one past the highest sequence number seen.
	NextSeq uint64
	// TruncatedBytes counts journal bytes dropped as a torn or
	// corrupt tail (0 for a cleanly closed journal).
	TruncatedBytes int64
}

// ReplayJob is one job reconstructed from the journal.
type ReplayJob struct {
	// ID identifies the job as originally assigned.
	ID string
	// Seq is the job's original journal sequence number.
	Seq uint64
	// Spec is the job's submitted spec.
	Spec JobSpec
	// Finished reports whether a finish record was journaled; when
	// true State/Output/Error carry the final status and the job is
	// NOT re-run on restart.
	Finished bool
	// State mirrors the finish record's terminal state.
	State JobState
	// Output mirrors the finish record's report bytes.
	Output string
	// Error mirrors the finish record's failure message.
	Error string
}

// Unfinished reports whether the job needs re-running after a restart.
func (rj ReplayJob) Unfinished() bool { return !rj.Finished }

// OpenJournal opens (creating if absent) the journal at path,
// replays its valid prefix, truncates any torn tail, and returns the
// handle positioned for appending plus the replayed job table.
func OpenJournal(path string) (*Journal, *Replay, error) {
	return openJournal(path, nil)
}

// openJournal is OpenJournal over the commit log open opens (nil =
// commitlog.Open; see Config.openLog).
func openJournal(path string, open func(path string, apply func(payload []byte) bool) (*commitlog.Log, commitlog.Replay, error)) (*Journal, *Replay, error) {
	if open == nil {
		open = commitlog.Open
	}
	var (
		jobs []*ReplayJob
		byID = map[string]*ReplayJob{}
		rep  = &Replay{NextSeq: 1}
	)
	l, crep, err := open(path, func(payload []byte) bool {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return false
		}
		jobs = applyRecord(rep, jobs, byID, rec)
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal: %w", err)
	}
	rep.TruncatedBytes = crep.TruncatedBytes
	// Order by sequence for deterministic re-enqueue (records are
	// already appended in order; the sort makes it an invariant).
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Seq < jobs[j].Seq })
	rep.Jobs = make([]ReplayJob, len(jobs))
	for i, j := range jobs {
		rep.Jobs[i] = *j
	}
	return &Journal{log: l}, rep, nil
}

// applyRecord folds one valid record into the replay state. A finish
// for an unknown job (possible only if a submit was lost to a
// truncated prefix, which cannot happen in an append-only file), a
// submit whose seq leaves no next seq, and a record of any other type
// are ignored rather than fatal; a second submit of a replayed ID only
// advances NextSeq.
func applyRecord(rep *Replay, jobs []*ReplayJob, byID map[string]*ReplayJob, rec record) []*ReplayJob {
	switch rec.T {
	case "submit":
		if rec.Spec == nil || rec.ID == "" || rec.Seq == math.MaxUint64 {
			return jobs
		}
		rep.NextSeq = max(rep.NextSeq, rec.Seq+1)
		if byID[rec.ID] != nil {
			return jobs
		}
		j := &ReplayJob{ID: rec.ID, Seq: rec.Seq, Spec: *rec.Spec, State: StateQueued}
		jobs = append(jobs, j)
		byID[rec.ID] = j
	case "finish":
		if j := byID[rec.ID]; j != nil {
			j.Finished = true
			j.State = rec.State
			j.Output = rec.Output
			j.Error = rec.Error
		}
	}
	return jobs
}

// enqueue stakes one record's place in journal file order and returns
// its commit ticket; the caller Waits after releasing any locks the
// fsync must not be held under. A nil journal (daemon running without
// persistence) returns a resolved no-op ticket.
func (j *Journal) enqueue(rec record) commitlog.Ticket {
	if j == nil {
		return commitlog.Ticket{}
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return commitlog.Resolved(fmt.Errorf("serve: journal: %w", err))
	}
	return j.log.Enqueue(payload)
}

// append journals one record and blocks until it is durable (enqueue
// + wait). A nil journal is a no-op.
func (j *Journal) append(rec record) error {
	return j.enqueue(rec).Wait()
}

// Stats snapshots the journal's group-commit counters; nil for a
// daemon running without persistence.
func (j *Journal) Stats() *commitlog.Stats {
	if j == nil {
		return nil
	}
	st := j.log.Stats()
	return &st
}

// Close drains pending appends, syncs, and closes the journal file,
// reporting both the sync and close outcomes (errors.Join). A nil
// journal is a no-op.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	if err := j.log.Close(); err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	return nil
}
