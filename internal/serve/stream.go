package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"dice/internal/commitlog"
	"dice/internal/obs"
)

// The streaming wire format: GET /jobs/{id}/stream answers NDJSON,
// one StreamEvent per line, framed exactly like the journal and the
// dse results log — "crc8hex space json", CRC-32C over the payload —
// so a reader can apply the same longest-valid-prefix discipline: a
// torn tail (connection cut mid-line) parses as "stop here and
// reconnect", never as corrupt data.
//
// Delivery contract: every connection is served the job's whole
// event sequence from the first event. A client that reconnects —
// after a cut, a daemon restart, or against a finished job's
// synthesized replay — reads the sequence again, and client.Stream
// hands each distinct event to its caller once: cells keyed by
// CellResult.Key, epochs by (EpochLine.Key, Snap.Epoch). The
// determinism contract makes that safe: a re-run job may complete its
// cells in a different order, but each re-delivered cell is
// byte-identical to the first delivery.
//
// Cell events and the final done event are replayed on reconnect (the
// daemon re-derives them from the journal after a crash). Epoch
// events are live telemetry: best-effort, bounded by streamBufferCap,
// and not replayed for a job that finished in a previous process.

// StreamKind discriminates the event types on a job stream.
type StreamKind string

// The three stream event kinds: a completed cell's result, one epoch
// metrics snapshot, and the terminal marker that ends the stream.
const (
	StreamCell  StreamKind = "cell"
	StreamEpoch StreamKind = "epoch"
	StreamDone  StreamKind = "done"
)

// StreamEvent is one line of a job's NDJSON stream. Exactly one of
// Cell and Epoch is set for the corresponding kinds; State and Error
// are set on the done event only.
type StreamEvent struct {
	// Kind is the event type (cell, epoch, or done).
	Kind StreamKind `json:"kind"`
	// Cell carries a completed cell's result (kind "cell").
	Cell *CellResult `json:"cell,omitempty"`
	// Epoch carries one epoch metrics snapshot, tagged with its
	// simulation's memoization key so a multi-cell job's interleaved
	// epochs remain attributable (kind "epoch"). It is the same line a
	// -metrics-out file holds.
	Epoch *obs.EpochLine `json:"epoch,omitempty"`
	// State is the job's terminal state (kind "done").
	State JobState `json:"state,omitempty"`
	// Error is the job's error text, if any (kind "done").
	Error string `json:"error,omitempty"`
}

// EncodeStreamEvent renders one event as a framed stream line,
// trailing newline included.
func EncodeStreamEvent(ev StreamEvent) ([]byte, error) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding stream event: %w", err)
	}
	return commitlog.Frame(payload), nil
}

// DecodeStreamLine parses one framed stream line (without its
// trailing newline). ok is false for a torn, malformed, or
// CRC-mismatched line, and for an event of unknown kind or without
// its kind's payload — the reader's signal to stop and reconnect,
// mirroring the journal's longest-valid-prefix replay.
func DecodeStreamLine(line []byte) (StreamEvent, bool) {
	payload, ok := commitlog.ParseFrame(line)
	if !ok {
		return StreamEvent{}, false
	}
	var ev StreamEvent
	if err := json.Unmarshal(payload, &ev); err != nil {
		return StreamEvent{}, false
	}
	switch ev.Kind {
	case StreamCell:
		ok = ev.Cell != nil
	case StreamEpoch:
		ok = ev.Epoch != nil
	default:
		ok = ev.Kind == StreamDone
	}
	if !ok {
		return StreamEvent{}, false
	}
	return ev, true
}

// progress is one live job's stream buffer: the ordered event
// sequence, a closed flag once the done event has been appended, and
// a broadcast channel for blocked streamers. Cell and done events are
// always retained (bounded by MaxCellsPerJob+1); epoch events beyond
// the buffer cap are dropped at append time — they are telemetry.
type progress struct {
	mu     sync.Mutex
	cap    int
	events []StreamEvent
	closed bool
	// notify is closed and replaced on every append, waking every
	// streamer blocked in snapshot.
	notify chan struct{}
	// droppedEpochs counts epoch events the buffer cap discarded;
	// finish hands it to the daemon's stream_epochs_dropped counter.
	droppedEpochs uint64
}

// newProgress returns an empty stream buffer for one job.
func newProgress(bufCap int) *progress {
	return &progress{cap: bufCap, notify: make(chan struct{})}
}

// add appends one event and wakes blocked streamers. Epoch events are
// dropped once the buffer cap is reached; cell and done events always
// append. Appending after close is ignored (defensive: the executor
// has no events to emit after the outcome is recorded).
func (p *progress) add(ev StreamEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if ev.Kind == StreamEpoch && len(p.events) >= p.cap {
		p.droppedEpochs++
		return
	}
	p.events = append(p.events, ev)
	close(p.notify)
	p.notify = make(chan struct{})
}

// finish appends the terminal done event, closes the buffer, and
// returns how many epoch events the cap dropped (0 if already closed,
// so a count is reported once).
func (p *progress) finish(state JobState, errMsg string) (droppedEpochs uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0
	}
	p.events = append(p.events, StreamEvent{Kind: StreamDone, State: state, Error: errMsg})
	p.closed = true
	close(p.notify)
	p.notify = make(chan struct{})
	return p.droppedEpochs
}

// snapshot returns the events at and after index from (at most the
// number already written to the streamer), whether the stream is
// complete, and a channel that is closed on the next append — the
// streamer blocks on it when it has written everything and the job is
// still running.
func (p *progress) snapshot(from int) (evs []StreamEvent, closed bool, wait <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// The tail slice is safe to return: events are append-only and
	// individual entries are never mutated after publication.
	return p.events[from:], p.closed, p.notify
}

// synthesizeStream rebuilds a finished job's event sequence from its
// status — used for jobs whose live buffer is gone (journal-replayed
// finished jobs, or outputs evicted by retention). Cell results decode
// from Output in spec order; epoch events are not reconstructable and
// are omitted.
func synthesizeStream(st JobStatus) []StreamEvent {
	var evs []StreamEvent
	if len(st.Spec.Cells) > 0 && st.Output != "" {
		if cells, err := DecodeCellResults(strings.NewReader(st.Output)); err == nil {
			for i := range cells {
				evs = append(evs, StreamEvent{Kind: StreamCell, Cell: &cells[i]})
			}
		}
	}
	return append(evs, StreamEvent{Kind: StreamDone, State: st.State, Error: st.Error})
}
