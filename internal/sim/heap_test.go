package sim

import (
	"math/rand"
	"testing"
)

// TestEventHeapOrdering checks the hand-rolled heap pops events in
// (when, core-index) order — the strict total order the event core's
// determinism rests on — across random push/pop interleavings.
func TestEventHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(16)
		var h eventHeap
		for i := 0; i < n; i++ {
			h.push(schedEvent{when: uint64(rng.Intn(8)), c: &core{idx: i}})
		}
		var prev *schedEvent
		for len(h) > 0 {
			ev := h.pop()
			if prev != nil && ev.before(*prev) {
				t.Fatalf("trial %d: popped (%d,%d) after (%d,%d)",
					trial, ev.when, ev.c.idx, prev.when, prev.c.idx)
			}
			p := ev
			prev = &p
			// Re-push with a later time half the time, like the scheduler.
			if rng.Intn(2) == 0 && len(h) < n {
				ev.when += uint64(1 + rng.Intn(4))
				h.push(ev)
				prev = nil
			}
		}
	}
}

// TestEventHeapSameCycleOrder pins the same-cycle tie-break the
// determinism argument depends on: same-cycle core events dispatch in
// core-index order.
func TestEventHeapSameCycleOrder(t *testing.T) {
	var h eventHeap
	for _, idx := range []int{5, 2, 7, 0, 3} {
		h.push(schedEvent{when: 10, c: &core{idx: idx}})
	}
	h.push(schedEvent{when: 9, c: &core{idx: 6}})

	want := []struct {
		when uint64
		idx  int
	}{{9, 6}, {10, 0}, {10, 2}, {10, 3}, {10, 5}, {10, 7}}
	for i, w := range want {
		if ev := h.pop(); ev.when != w.when || ev.c.idx != w.idx {
			t.Fatalf("pop %d: got (when=%d, core %d), want (when=%d, core %d)",
				i, ev.when, ev.c.idx, w.when, w.idx)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d events left", len(h))
	}
}

// TestEventHeapPopClearsSlot is the regression test for a heap-slot
// leak: pop must nil the vacated slot's core pointer so the last-popped
// *core doesn't stay reachable (pinning the core and everything it
// references) for as long as the slice's backing array lives.
func TestEventHeapPopClearsSlot(t *testing.T) {
	h := make(eventHeap, 0, 8)
	for i := 0; i < 8; i++ {
		h.push(schedEvent{when: uint64(100 - i), c: &core{idx: i}})
	}
	for len(h) > 0 {
		h.pop()
	}
	// Every slot of the backing array must have been cleared on pop.
	for i, ev := range h[:cap(h)] {
		if ev.c != nil {
			t.Fatalf("backing array slot %d still pins core %d after pop", i, ev.c.idx)
		}
	}
}

// TestInsertSorted pins the outstanding-window insert: ascending order
// maintained for front, middle and back insertions (the append-pad-
// then-shift path), including duplicates.
func TestInsertSorted(t *testing.T) {
	cases := []struct {
		name string
		have []uint64
		v    uint64
		want []uint64
	}{
		{name: "empty", have: nil, v: 5, want: []uint64{5}},
		{name: "back", have: []uint64{1, 2, 3}, v: 9, want: []uint64{1, 2, 3, 9}},
		{name: "front", have: []uint64{4, 5, 6}, v: 1, want: []uint64{1, 4, 5, 6}},
		{name: "middle", have: []uint64{1, 5, 9}, v: 6, want: []uint64{1, 5, 6, 9}},
		{name: "duplicate", have: []uint64{3, 3, 7}, v: 3, want: []uint64{3, 3, 3, 7}},
		{name: "equal to back", have: []uint64{2, 8}, v: 8, want: []uint64{2, 8, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := insertSorted(append([]uint64(nil), tc.have...), tc.v)
			if len(got) != len(tc.want) {
				t.Fatalf("insertSorted(%v, %d) = %v, want %v", tc.have, tc.v, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("insertSorted(%v, %d) = %v, want %v", tc.have, tc.v, got, tc.want)
				}
			}
		})
	}
}

// TestInsertSortedReusesCapacity checks the retire-then-insert cycle
// never grows past the pre-sized window capacity, so the hot loop runs
// allocation-free.
func TestInsertSortedReusesCapacity(t *testing.T) {
	const window = 6
	s := make([]uint64, 0, window+1)
	base := &s[:1][0]
	for i := 0; i < 1000; i++ {
		if len(s) >= window {
			n := copy(s, s[1:])
			s = s[:n]
		}
		s = insertSorted(s, uint64(i*7%97))
		if cap(s) != window+1 || &s[:1][0] != base {
			t.Fatalf("iteration %d: backing array reallocated (cap %d)", i, cap(s))
		}
	}
}
