package dram

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// refChannel is the pre-fast-path bus scheduler: an append/copy slice
// scanned linearly from the start on every reservation. It is kept here
// verbatim as the executable specification that the ring implementation
// must match reservation-for-reservation — the experiment goldens were
// produced by this code.
type refChannel struct {
	busy []span
}

func (ch *refChannel) reserveBus(earliest, dur uint64) uint64 {
	s := earliest
	insertAt := len(ch.busy)
	for i, b := range ch.busy {
		if b.end <= s {
			continue
		}
		if b.start >= s+dur {
			insertAt = i
			break
		}
		s = b.end
	}
	if insertAt == len(ch.busy) {
		ch.busy = append(ch.busy, span{s, s + dur})
	} else {
		ch.busy = append(ch.busy, span{})
		copy(ch.busy[insertAt+1:], ch.busy[insertAt:])
		ch.busy[insertAt] = span{s, s + dur}
	}
	if len(ch.busy) > busWindow {
		ch.busy = ch.busy[len(ch.busy)-busWindow:]
	}
	return s
}

// busyLen returns how many reservations the window retains.
func (ch *channel) busyLen() int { return ch.n }

// busAt returns the i-th oldest retained reservation (0 <= i < busyLen).
func (ch *channel) busAt(i int) span { return ch.busy[i] }

// sameWindow reports whether ch retains exactly ref's reservations.
func sameWindow(ch *channel, ref *refChannel) bool {
	if ch.busyLen() != len(ref.busy) {
		return false
	}
	for i := range ref.busy {
		if ch.busAt(i) != ref.busy[i] {
			return false
		}
	}
	return true
}

// Property: the bus-window scheduler returns the same start time as the
// reference for every reservation of an arbitrary stream AND retains an
// identical busy window afterwards — bit-exactness of every golden
// depends on this.
func TestQuickReserveBusMatchesReference(t *testing.T) {
	f := func(times []uint16, durs []uint8, jumps []uint32) bool {
		ch := &channel{}
		ref := &refChannel{}
		base := uint64(0)
		for i, tr := range times {
			dur := uint64(1)
			if i < len(durs) {
				dur += uint64(durs[i]) % 24
			}
			// Occasional large forward jumps exercise the append fast
			// path; small offsets exercise gap filling and the full-window
			// insert/trim edge cases.
			if i < len(jumps) && jumps[i]%7 == 0 {
				base += uint64(jumps[i] % 100_000)
			}
			earliest := base + uint64(tr)
			if ch.reserveBus(earliest, dur) != ref.reserveBus(earliest, dur) {
				return false
			}
		}
		return sameWindow(ch, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}

	// Full-window streams: once the window is full, a quarter of the
	// calls append after a gap and the rest land anywhere from just
	// before the oldest retained span to the newest end, so inserts
	// reach every window position. Each must match the reference, and
	// together they must reach every path of the bounded window.
	reached := map[string]int{}
	full := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		ch := &channel{}
		ref := &refChannel{}
		end := uint64(0)
		for i := 0; i < 1500; i++ {
			dur := 1 + rng.Uint64N(24)
			earliest := end + rng.Uint64N(60)
			wasFull := ch.busyLen() == busWindow
			if wasFull && rng.UintN(4) != 0 {
				oldest := ch.busAt(0).start
				from := oldest - min(oldest, 40)
				earliest = from + rng.Uint64N(end-from)
			}
			s := ch.reserveBus(earliest, dur)
			if s != ref.reserveBus(earliest, dur) {
				return false
			}
			end = max(end, s+dur)
			if wasFull {
				reached[busPath(ch, s)]++
			}
		}
		return sameWindow(ch, ref)
	}
	if err := quick.Check(full, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	t.Logf("full-window paths reached: %v", reached)
	for _, path := range []string{"append", "mid-window insert", "position-0 drop"} {
		if reached[path] == 0 {
			t.Errorf("full-window streams never reached the %s path (reached %v)", path, reached)
		}
	}
}

// busPath names the path a reservation starting at s took through a
// full window: appended as the newest span, inserted amid the retained
// history (the prefix shifted left over the dropped oldest span), or
// dropped at position 0.
func busPath(ch *channel, s uint64) string {
	n := ch.busyLen()
	if ch.busAt(n-1).start == s {
		return "append"
	}
	for i := 0; i < n; i++ {
		if ch.busAt(i).start == s {
			return "mid-window insert"
		}
	}
	return "position-0 drop"
}

// TestReserveBusFullWindowEdge pins the bounded-history edge case: with
// a full 64-entry window, a reservation that would insert at position 0
// gets its start time honored but is immediately trimmed out of the
// retained history (oldest of 65). The window must reproduce that, not
// "fix" it.
func TestReserveBusFullWindowEdge(t *testing.T) {
	ch := &channel{}
	ref := &refChannel{}
	// Fill the window with spans [100,110), [200,210), ... leaving gaps.
	for i := 1; i <= busWindow; i++ {
		at := uint64(i * 100)
		ch.reserveBus(at, 10)
		ref.reserveBus(at, 10)
	}
	if ch.busyLen() != busWindow {
		t.Fatalf("window len = %d, want %d", ch.busyLen(), busWindow)
	}
	// An early reservation fits in the gap before the oldest span.
	got, want := ch.reserveBus(5, 10), ref.reserveBus(5, 10)
	if got != want || got != 5 {
		t.Fatalf("early start = %d, ref = %d, want 5", got, want)
	}
	if ch.busyLen() != len(ref.busy) {
		t.Fatalf("window len = %d, ref = %d", ch.busyLen(), len(ref.busy))
	}
	for i := range ref.busy {
		if ch.busAt(i) != ref.busy[i] {
			t.Fatalf("window[%d] = %+v, ref %+v", i, ch.busAt(i), ref.busy[i])
		}
	}
	// The trimmed-away span must NOT appear: the retained oldest is still
	// the original [100,110).
	if first := ch.busAt(0); first.start != 100 {
		t.Fatalf("oldest retained span starts at %d, want 100", first.start)
	}
}

// FuzzReserveBusAgainstReference drives the bus window and refChannel
// with arbitrary byte streams and compares the returned start and the
// retained window after every call. The first byte sets how many spans
// are booked up front (busWindow or more in three of four inputs, so
// most streams start on a full window) and the second their spacing.
// Each following (offset, duration) byte pair books one span: an
// offset of 192 or more, or any offset while the window is filling,
// lands at or past the newest end; a smaller one lands anywhere from
// 32 cycles before the oldest retained span to the newest end, so
// inserts reach every window position and the position-0 drop.
func FuzzReserveBusAgainstReference(f *testing.F) {
	f.Add([]byte{64, 20, 0, 9, 100, 3, 191, 23, 250, 0, 1, 1})
	f.Add([]byte{255, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{10, 5, 200, 4, 3, 12, 50, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ch := &channel{}
		ref := &refChannel{}
		end := uint64(0)
		book := func(earliest, dur uint64) {
			s, want := ch.reserveBus(earliest, dur), ref.reserveBus(earliest, dur)
			if s != want {
				t.Fatalf("reserveBus(%d, %d) = %d, reference %d", earliest, dur, s, want)
			}
			if !sameWindow(ch, ref) {
				t.Fatalf("after reserveBus(%d, %d): window %v, reference %v",
					earliest, dur, ch.busy[:ch.n], ref.busy)
			}
			end = max(end, s+dur)
		}
		gap := uint64(data[1] % 32)
		for i := 0; i < int(data[0]); i++ {
			book(end+gap, 10)
		}
		for k := 2; k+1 < len(data); k += 2 {
			off, dur := uint64(data[k]), 1+uint64(data[k+1])%24
			earliest := end + off%64
			if ch.busyLen() == busWindow && off < 192 {
				oldest := ch.busAt(0).start
				from := oldest - min(oldest, 32)
				earliest = from + off*(end-from)/192
			}
			book(earliest, dur)
		}
	})
}

// refInFlight is the pre-fast-path query: a modulo scan over the whole
// queue ring.
func refInFlight(ch *channel, now uint64) int {
	n := 0
	for i := 0; i < ch.count; i++ {
		if ch.queue[(ch.head+i)%len(ch.queue)] > now {
			n++
		}
	}
	return n
}

// Property: InFlight and InFlightTotal match the reference scan at
// arbitrary probe times — including times older than queued completions
// (the MLP-window replays that make a purely maintained counter
// impossible) — throughout a random access stream.
func TestQuickInFlightMatchesReference(t *testing.T) {
	cfg := HBMConfig()
	cfg.QueueDepth = 8 // small depth: exercises full-queue pops and wrap
	m := New(cfg)
	rng := rand.New(rand.NewPCG(7, 11))
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		loc := Loc{Channel: int(rng.UintN(4)), Bank: int(rng.UintN(16)), Row: uint64(rng.UintN(32))}
		// Non-monotone issue times: jump forward, occasionally replay an
		// earlier cycle the way the MLP window and far-future DDR fills do.
		switch rng.UintN(4) {
		case 0:
			now += uint64(rng.UintN(500))
		case 1:
			if now > 200 {
				now -= uint64(rng.UintN(200))
			}
		}
		m.Access(now, loc, rng.UintN(4) == 0, 80)
		probe := now
		if rng.UintN(2) == 0 {
			probe += uint64(rng.UintN(2000))
		}
		wantTotal := 0
		for c := range m.channels {
			ch := &m.channels[c]
			want := refInFlight(ch, probe)
			wantTotal += want
			if got := m.InFlight(probe, Loc{Channel: c}); got != want {
				t.Fatalf("step %d: InFlight(ch%d, %d) = %d, want %d", i, c, probe, got, want)
			}
		}
		if got := m.InFlightTotal(probe); got != wantTotal {
			t.Fatalf("step %d: InFlightTotal(%d) = %d, want %d", i, probe, got, wantTotal)
		}
	}
}

// BenchmarkReserveBus measures the scheduler under a saturated bus: the
// window is always full, so every call scans back from the newest span
// and a retained insert shifts the prefix. fullwindow is the mix the
// simulator produces (three of four calls insert into the middle of a
// full window, about 20 spans from its newest end); append and gapfill
// isolate appends and far/near alternation. Their regular patterns
// keep branches predicted far better than simulator traffic does, so
// a change here need not show end to end.
func BenchmarkReserveBus(b *testing.B) {
	for _, mode := range []string{"append", "gapfill", "fullwindow"} {
		b.Run(mode, func(b *testing.B) {
			ch := &channel{}
			now := uint64(0)
			// fullwindow: each round appends one span after a 30-cycle
			// gap and fills, with three 10-cycle inserts, the gap left
			// 18 rounds earlier, which sits about 20 spans from the
			// window's newest end (the appends of the rounds since).
			var gaps [32]uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				switch mode {
				case "append":
					now += 10
					ch.reserveBus(now, 10)
				case "gapfill":
					// Alternate far/near so half the calls land amid the
					// retained history.
					if i%2 == 0 {
						now += 40
						ch.reserveBus(now+1000, 10)
					} else {
						ch.reserveBus(now, 10)
					}
				default:
					round := i / 4
					if i%4 == 0 {
						gaps[round%len(gaps)] = now
						now = ch.reserveBus(now+30, 10) + 10
					} else if round >= 18 {
						ch.reserveBus(gaps[(round-18)%len(gaps)], 10)
					}
				}
			}
		})
	}
}

// BenchmarkInFlight measures the prefetch throttle's query on a full
// queue: a scan of the queued completions, linear in the queue depth.
func BenchmarkInFlight(b *testing.B) {
	for _, depth := range []int{96, 384, 1536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			cfg := HBMConfig()
			cfg.QueueDepth = depth
			m := New(cfg)
			loc := Loc{Channel: 0, Bank: 0, Row: 1}
			// Fill the queue with incomplete requests, all issued at 0.
			for i := 0; i < depth; i++ {
				m.Access(0, loc, false, 80)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.InFlight(0, loc)
			}
		})
	}
}

// BenchmarkInFlightTotal is the per-epoch metrics gauge: one queue scan
// per channel, O(channels x queue depth).
func BenchmarkInFlightTotal(b *testing.B) {
	for _, depth := range []int{96, 384, 1536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			cfg := HBMConfig()
			cfg.QueueDepth = depth
			m := New(cfg)
			for c := 0; c < cfg.Channels; c++ {
				for i := 0; i < depth; i++ {
					m.Access(0, Loc{Channel: c, Bank: 0, Row: 1}, false, 80)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.InFlightTotal(0)
			}
		})
	}
}
