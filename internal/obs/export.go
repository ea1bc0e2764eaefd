package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// EpochLine is the one exported shape of an epoch snapshot: the
// snapshot tagged with the memoization key (experiments.CellSpec.Key)
// of the simulation that recorded it, so the interleaved epochs of many
// simulations stay attributable. Every -metrics-out file is NDJSON of
// EpochLine values, and the daemon stream's epoch event carries the
// same value.
type EpochLine struct {
	// Key is the recording simulation's memoization key.
	Key string `json:"key"`
	// Snap is the epoch snapshot (see METRICS.md for the schema).
	Snap Snapshot `json:"snap"`
}

// EpochWriter appends EpochLines to a writer as NDJSON, one object per
// line in Emit order. It is safe for concurrent use, so simulation
// worker goroutines may emit straight into it. Emit never fails: the
// first error (a write failure, or a snapshot JSON cannot encode, such
// as a NaN sample) is remembered, nothing is written after it, and
// Close returns it. A refused snapshot leaves no partial line behind.
type EpochWriter struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer
	count  int
	closed bool
	err    error
}

// NewEpochWriter returns a writer appending to w. If w is also an
// io.Closer, Close closes it.
func NewEpochWriter(w io.Writer) *EpochWriter {
	c, _ := w.(io.Closer)
	return &EpochWriter{w: bufio.NewWriter(w), c: c}
}

// Emit appends one line for snapshot s of the simulation keyed key.
func (e *EpochWriter) Emit(key string, s Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.err != nil {
		return
	}
	b, err := json.Marshal(EpochLine{Key: key, Snap: s})
	if err != nil {
		e.err = fmt.Errorf("obs: epoch %d of %s: %w", s.Epoch, key, err)
		return
	}
	if _, err := e.w.Write(append(b, '\n')); err != nil {
		e.err = err
		return
	}
	e.count++
}

// Count returns how many lines were appended.
func (e *EpochWriter) Count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count
}

// Close flushes the buffered lines, closes the underlying writer when
// it is an io.Closer, and returns the first error the writer hit.
// Idempotent: later calls return the same result.
func (e *EpochWriter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return e.err
	}
	e.closed = true
	if err := e.w.Flush(); e.err == nil {
		e.err = err
	}
	if e.c != nil {
		if err := e.c.Close(); e.err == nil {
			e.err = err
		}
	}
	return e.err
}

// WriteEpochs writes every key's snapshots to w as epoch lines, keys in
// sorted order and each key's snapshots in slice order, so the bytes
// depend only on the map's contents. Like Close, it closes w when w is
// an io.Closer, and it returns the first error.
func WriteEpochs(w io.Writer, byKey map[string][]Snapshot) error {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ew := NewEpochWriter(w)
	for _, k := range keys {
		for _, s := range byKey[k] {
			ew.Emit(k, s)
		}
	}
	return ew.Close()
}
