// The discrete-event simulation core. Instead of sweeping the virtual
// clock one cycle at a time, the scheduler keeps a min-heap of the
// cores' next-reference times and jumps the clock straight to the next
// one, skipping every idle cycle in between. Core wakeup times already
// fold in all the machine's timing sources: the issue gap, MLP-window
// retire stalls, and DRAM bus/queue delays, which reach a core through
// the completion cycles dram.Memory.Access returns. Epoch boundaries
// are not events: processRef records every boundary due at a core's
// clock before stepping it, under either core.
// Determinism: cores are dispatched in strict (clock, core-index)
// order, which is exactly the order the cycle-stepped reference visits
// them in, so both cores produce byte-identical Results — the
// differential tests enforce it.
package sim

import "dice/internal/workloads"

// schedEvent is one pending event: core c is ready to issue its next
// reference at cycle when.
type schedEvent struct {
	when uint64
	c    *core
}

// before is the scheduler's strict total order: (when, core-index)
// lexicographic. Same-cycle events dispatch in core-index order, which
// is what makes event dispatch order identical to the cycle-stepped
// reference's per-cycle core scan.
func (e schedEvent) before(o schedEvent) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.c.idx < o.c.idx
}

// eventHeap is a hand-rolled binary min-heap of schedEvents under
// before, kept free of container/heap's interface boxing on the hot
// path.
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
	// CyclesSkipped is the number of virtual cycles in which no core
	// issued a reference: the idle cycles the scheduler jumped over
	// instead of stepping through — the cycle core's wasted work, and
	// the event core's speedup source.
	CyclesSkipped uint64
}

// runEvent drives the prepared state to completion on the event
// scheduler.
func runEvent(st *runState) EventStats {
	var stats EventStats
	h := make(eventHeap, 0, cores)
	for _, c := range st.cs {
		h.push(schedEvent{when: c.clock, c: c})
	}
	next := uint64(0) // the first cycle not yet dispatched or skipped
	for len(h) > 0 {
		ev := h[0] // stays queued until it re-enters or leaves for good
		if ev.when >= next {
			stats.CyclesSkipped += ev.when - next
			next = ev.when + 1
		}
		c := ev.c
		stats.CoreEvents++
		if st.processRef(c) {
			h.replaceTop(schedEvent{when: c.clock, c: c})
		} else {
			h.pop()
		}
	}
	return stats
}

// RunEvent executes workload w under cfg on the discrete-event core and
// returns the result plus the scheduler's work counters. It is Run
// with the counters; RunObserved attaches an observer.
func RunEvent(cfg Config, w workloads.Workload) (Result, EventStats, error) {
	st, err := prepare(cfg, w, nil)
	if err != nil {
		return Result{}, EventStats{}, err
	}
	stats := runEvent(st)
	return st.finish(), stats, nil
}
