// The discrete-event simulation core. Instead of sweeping the virtual
// clock one cycle at a time, the scheduler keeps a min-heap of pending
// events — per-core next-reference times plus epoch-sampling
// boundaries — and jumps the clock straight to the next one, skipping
// every idle cycle in between. Core wakeup times already fold in all
// the machine's timing sources: the issue gap, MLP-window retire
// stalls, and DRAM bus/queue delays, which reach a core through the
// completion cycles dram.Memory.Access returns. The scheduler never
// queries the channels' ready-times; dram.NextBusFree/NextCompletion
// expose them for the differential tests' machine-equality check.
// Determinism: events are dispatched in strict
// (when, kind, core-index) order, which is exactly the (clock, idx)
// order the cycle-stepped reference visits cores in, so both cores
// produce byte-identical Results — the differential tests enforce it.
package sim

import (
	"dice/internal/obs"
	"dice/internal/workloads"
)

// eventKind orders same-cycle events: epoch boundaries record the
// machine state as of the boundary cycle, so they must run before any
// core event scheduled at that same cycle mutates it — matching the
// reference core, which checks due boundaries before stepping a core.
type eventKind uint8

const (
	evEpoch eventKind = iota // epoch-sampling boundary
	evCore                   // core ready to issue its next reference
)

// schedEvent is one pending event. For evCore events c is the ready
// core; for evEpoch events c is nil and `when` is the recorder's next
// boundary.
type schedEvent struct {
	when uint64
	kind eventKind
	c    *core
}

// before is the scheduler's strict total order:
// (when, kind, core-index) lexicographic. Epoch events precede core
// events at the same cycle; same-cycle core events dispatch in core-
// index order, which is what makes event dispatch order identical to
// the cycle-stepped reference's per-cycle core scan.
func (e schedEvent) before(o schedEvent) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	if e.kind == evCore {
		return e.c.idx < o.c.idx
	}
	return false
}

// eventHeap is a hand-rolled binary min-heap of schedEvents under
// before — same shape as the retired coreHeap, kept free of
// container/heap's interface boxing on the hot path.
type eventHeap []schedEvent

func (h *eventHeap) push(e schedEvent) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() schedEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = schedEvent{} // clear the vacated slot: don't pin the core
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// replaceTop swaps e in for the top event with one sift-down, in place
// of a pop and a push; the order is total, so dispatch is unchanged.
func (h eventHeap) replaceTop(e schedEvent) {
	h[0] = e
	h.down(0)
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		next := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			next = r
		}
		if !h[next].before(h[i]) {
			break
		}
		h[i], h[next] = h[next], h[i]
		i = next
	}
}

// EventStats reports the discrete-event scheduler's work for one run.
// It is returned alongside the Result — never folded into it — so the
// Result stays byte-identical across simulation cores.
type EventStats struct {
	// CoreEvents is the number of core-reference events dispatched
	// (= total references processed).
	CoreEvents uint64
	// EpochEvents is the number of epoch-boundary events dispatched
	// (= snapshots recorded; 0 without an observer).
	EpochEvents uint64
	// CyclesSkipped is the number of idle virtual cycles the scheduler
	// jumped over instead of stepping through — the cycle core's wasted
	// work, and the event core's speedup source.
	CyclesSkipped uint64
}

// runEvent drives the prepared state to completion on the event
// scheduler.
func runEvent(st *runState) EventStats {
	var stats EventStats
	h := make(eventHeap, 0, cores+1)
	for _, c := range st.cs {
		h.push(schedEvent{when: c.clock, kind: evCore, c: c})
	}
	live := len(h) // cores still running; epoch events only fire among them

	// Epoch boundaries enter the heap as first-class events so snapshots
	// land on exactly the boundary cycles — but only while core events
	// remain: the reference core stops checking boundaries once all
	// cores finish, and the last reference's clock bounds recording.
	if st.et != nil && live > 0 {
		h.push(schedEvent{when: st.et.rec.Boundary(), kind: evEpoch})
	}

	now := uint64(0)
	for len(h) > 0 {
		ev := h[0] // stays queued until it re-enters or leaves for good
		if ev.when > now+1 {
			stats.CyclesSkipped += ev.when - now - 1
		}
		if ev.when > now {
			now = ev.when
		}
		if ev.kind == evEpoch {
			// A boundary is only due once a core reaches it; the top
			// epoch event has when == Boundary(), and every remaining core
			// event has when >= it, so the next core to run would see it
			// due. Dispatching it now, before that core, reproduces the
			// reference's check-boundaries-then-step order exactly. It is
			// queued only while cores run, so it always re-arms.
			st.et.record()
			stats.EpochEvents++
			h.replaceTop(schedEvent{when: st.et.rec.Boundary(), kind: evEpoch})
			continue
		}
		c := ev.c
		stats.CoreEvents++
		if st.processRef(c) {
			h.replaceTop(schedEvent{when: c.clock, kind: evCore, c: c})
			continue
		}
		h.pop()
		if live--; live == 0 {
			// Only the pending epoch event (if any) can remain, and its
			// when is strictly past the final core event's — a boundary
			// no core will ever reach, which the reference never records
			// either. Drop it with the heap.
			break
		}
	}
	return stats
}

// RunEvent executes workload w under cfg on the discrete-event core and
// returns the result plus the scheduler's work counters.
func RunEvent(cfg Config, w workloads.Workload) (Result, EventStats, error) {
	return RunEventObserved(cfg, w, nil)
}

// RunEventObserved is RunEvent with an observer attached (see
// RunObserved for observer semantics).
func RunEventObserved(cfg Config, w workloads.Workload, ob *obs.Observer) (Result, EventStats, error) {
	st, err := prepare(cfg, w, ob)
	if err != nil {
		return Result{}, EventStats{}, err
	}
	stats := runEvent(st)
	res := st.result()
	st.m.l4.Release()
	return res, stats, nil
}
