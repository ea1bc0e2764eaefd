package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Quick-checks for the scheduler primitives, pinned against a naive
// sorted-slice reference scheduler (the same pattern as the dram
// reserveBus quick-checks): every dispatch order the heap produces must
// match a stable sort under the (when, core-index) total order.

// naiveSched is the executable specification: a plain slice re-sorted
// before every pop with a stable comparator over the same total order
// the heap's before() implements.
type naiveSched struct {
	evs []schedEvent
}

func (n *naiveSched) push(e schedEvent) { n.evs = append(n.evs, e) }

func (n *naiveSched) pop() schedEvent {
	sort.SliceStable(n.evs, func(i, j int) bool { return n.evs[i].before(n.evs[j]) })
	e := n.evs[0]
	n.evs = n.evs[1:]
	return e
}

// sameEvent compares dispatch identity (when, core).
func sameEvent(a, b schedEvent) bool {
	return a.when == b.when && a.c == b.c
}

// TestQuickSchedulerMatchesNaive drives random event streams — pushes
// interleaved with pops and with the event loop's replace-top step,
// same-cycle collisions forced by a tiny time range — through both
// schedulers and requires identical dispatch sequences.
func TestQuickSchedulerMatchesNaive(t *testing.T) {
	coresPool := make([]*core, 8)
	for i := range coresPool {
		coresPool[i] = &core{idx: i}
	}
	event := func(v uint16) schedEvent {
		// Tiny range: force ties.
		return schedEvent{when: uint64(v % 7), c: coresPool[int(v)%len(coresPool)]}
	}
	f := func(ops []uint16) bool {
		var h eventHeap
		var n naiveSched
		for _, op := range ops {
			switch {
			case op%3 == 0 || len(h) == 0:
				ev := event(op)
				h.push(ev)
				n.push(ev)
			case op%3 == 1:
				if !sameEvent(h.pop(), n.pop()) {
					return false
				}
			default:
				// The event loop's re-entry: dispatch the top in place
				// and queue its successor where it stood.
				ev := event(op / 3)
				if !sameEvent(h[0], n.pop()) {
					return false
				}
				h.replaceTop(ev)
				n.push(ev)
			}
		}
		for len(h) > 0 {
			if !sameEvent(h.pop(), n.pop()) {
				return false
			}
		}
		return len(n.evs) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWakeupCoalescing models the scheduler's reschedule pattern:
// each popped core event re-enters at a strictly later wakeup time
// (issue gap, MLP retire, or DRAM ready-time — all strictly positive
// delays). The property: dispatch times are globally nondecreasing and
// every core's own dispatches are strictly increasing, under arbitrary
// wakeup deltas — including many cores coalescing onto the same cycle.
func TestQuickWakeupCoalescing(t *testing.T) {
	f := func(deltas []uint8, rounds uint8) bool {
		cs := make([]*core, 4)
		var h eventHeap
		for i := range cs {
			cs[i] = &core{idx: i}
			h.push(schedEvent{when: 0, c: cs[i]})
		}
		lastPer := map[*core]uint64{}
		first := map[*core]bool{cs[0]: true, cs[1]: true, cs[2]: true, cs[3]: true}
		last := uint64(0)
		budget := int(rounds)%64 + 8
		di := 0
		for len(h) > 0 {
			ev := h.pop()
			if ev.when < last {
				return false // global dispatch order went backwards
			}
			last = ev.when
			if !first[ev.c] && ev.when <= lastPer[ev.c] {
				return false // a core dispatched twice at one cycle
			}
			first[ev.c] = false
			lastPer[ev.c] = ev.when
			if budget > 0 {
				budget--
				d := uint64(1) // strictly positive wakeup delay
				if di < len(deltas) {
					d += uint64(deltas[di]) % 16
					di++
				}
				ev.when += d
				h.push(ev)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyQueueIdleSkip pins the idle-skip accounting on a stream with
// huge gaps: a single core rescheduled far into the future must charge
// every skipped cycle to CyclesSkipped, and a drained heap must end the
// run (no busy-wait on an empty queue).
func TestEmptyQueueIdleSkip(t *testing.T) {
	var h eventHeap
	c := &core{idx: 0}
	h.push(schedEvent{when: 0, c: c})

	wakeups := []uint64{1_000, 1_000_000, 1_000_001, 5_000_000}
	next := uint64(0) // runEvent's accounting
	var skipped, dispatched uint64
	i := 0
	for len(h) > 0 {
		ev := h.pop()
		if ev.when >= next {
			skipped += ev.when - next
			next = ev.when + 1
		}
		dispatched++
		if i < len(wakeups) {
			h.push(schedEvent{when: wakeups[i], c: c})
			i++
		}
	}
	if dispatched != uint64(len(wakeups))+1 {
		t.Fatalf("dispatched %d events, want %d", dispatched, len(wakeups)+1)
	}
	// Idle cycles: (0,1000) skips 999, (1000,1000000) skips 998999,
	// (1000000,1000001) adjacent skips 0, (1000001,5000000) skips 3999998.
	if want := uint64(999 + 998_999 + 0 + 3_999_998); skipped != want {
		t.Fatalf("CyclesSkipped accounting = %d, want %d", skipped, want)
	}
}

// TestSchedulerRandomSoak cross-checks a longer randomized soak of the
// full push/pop mix against the naive scheduler, with wider time ranges
// than the quick-check's tie-forcing band.
func TestSchedulerRandomSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	coresPool := make([]*core, cores)
	for i := range coresPool {
		coresPool[i] = &core{idx: i}
	}
	var h eventHeap
	var n naiveSched
	for i := 0; i < 20_000; i++ {
		if rng.Intn(3) > 0 && len(h) > 0 {
			if !sameEvent(h.pop(), n.pop()) {
				t.Fatalf("step %d: heap and naive scheduler diverged", i)
			}
			continue
		}
		ev := schedEvent{when: uint64(rng.Intn(1 << 20)), c: coresPool[rng.Intn(len(coresPool))]}
		h.push(ev)
		n.push(ev)
	}
	for len(h) > 0 {
		if !sameEvent(h.pop(), n.pop()) {
			t.Fatal("drain: heap and naive scheduler diverged")
		}
	}
}
