package dram

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := HBMConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		func() Config { c := HBMConfig(); c.Channels = 0; return c }(),
		func() Config { c := HBMConfig(); c.Banks = -1; return c }(),
		func() Config { c := HBMConfig(); c.QueueDepth = 0; return c }(),
		func() Config { c := HBMConfig(); c.BeatBytes = 0; return c }(),
		func() Config { c := HBMConfig(); c.RowBytes = 0; return c }(),
		func() Config { c := HBMConfig(); c.InterleaveBytes = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestPeakBandwidthRatio(t *testing.T) {
	hbm := New(HBMConfig())
	ddr := New(DDRConfig())
	ratio := hbm.PeakBandwidth() / ddr.PeakBandwidth()
	if ratio != 8 {
		t.Fatalf("stacked:DDR bandwidth ratio = %v, want 8 (4x channels, 2x width)", ratio)
	}
}

func TestRowBufferHit(t *testing.T) {
	m := New(HBMConfig())
	loc := Loc{Channel: 0, Bank: 0, Row: 5}
	// First access: closed row -> tRCD + tCAS + burst.
	done1 := m.Access(0, loc, false, 80)
	wantFirst := uint64(44+44) + m.BurstCycles(80)
	if done1 != wantFirst {
		t.Fatalf("first access done = %d, want %d", done1, wantFirst)
	}
	// Second access to same row, issued after the first completes: tCAS only.
	done2 := m.Access(done1, loc, false, 80)
	if got := done2 - done1; got != uint64(44)+m.BurstCycles(80) {
		t.Fatalf("row hit latency = %d, want %d", got, uint64(44)+m.BurstCycles(80))
	}
	s := m.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 || s.RowConflicts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRowConflictPaysPrecharge(t *testing.T) {
	cfg := HBMConfig()
	cfg.BatchFactor = 1 // every row switch pays the full row cycle
	m := New(cfg)
	a := Loc{Channel: 0, Bank: 0, Row: 1}
	b := Loc{Channel: 0, Bank: 0, Row: 2}
	done1 := m.Access(0, a, false, 80)
	// Conflict long after tRAS has elapsed: tRP + tRCD + tCAS.
	late := done1 + 1000
	done2 := m.Access(late, b, false, 80)
	want := uint64(44*3) + m.BurstCycles(80)
	if got := done2 - late; got != want {
		t.Fatalf("conflict latency = %d, want %d", got, want)
	}
	if m.Stats().RowConflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", m.Stats().RowConflicts)
	}
}

func TestConflictRespectsTRAS(t *testing.T) {
	cfg := HBMConfig()
	cfg.BatchFactor = 1
	m := New(cfg)
	a := Loc{Channel: 0, Bank: 0, Row: 1}
	b := Loc{Channel: 0, Bank: 0, Row: 2}
	m.Access(0, a, false, 16)
	// Activate happened at 0. A conflicting access right after the bank
	// frees must wait until tRAS (112) before precharging.
	burst := m.BurstCycles(16)
	firstDone := uint64(88) + burst
	done := m.Access(firstDone, b, false, 16)
	// Precharge start = max(firstDone, 0+112) = 112.
	want := uint64(112) + uint64(44*3) + burst
	if done != want {
		t.Fatalf("done = %d, want %d", done, want)
	}
}

func TestBusSerializesBursts(t *testing.T) {
	m := New(HBMConfig())
	// Two accesses to different banks on the same channel at the same time:
	// their core latencies overlap but the bursts must serialize on the bus.
	locA := Loc{Channel: 0, Bank: 0, Row: 1}
	locB := Loc{Channel: 0, Bank: 1, Row: 1}
	d1 := m.Access(0, locA, false, 80)
	d2 := m.Access(0, locB, false, 80)
	if d2 < d1+m.BurstCycles(80) {
		t.Fatalf("bursts overlapped: d1=%d d2=%d", d1, d2)
	}
	// Different channels do overlap fully.
	m2 := New(HBMConfig())
	e1 := m2.Access(0, Loc{Channel: 0, Bank: 0, Row: 1}, false, 80)
	e2 := m2.Access(0, Loc{Channel: 1, Bank: 0, Row: 1}, false, 80)
	if e1 != e2 {
		t.Fatalf("independent channels should complete together: %d vs %d", e1, e2)
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := HBMConfig()
	cfg.QueueDepth = 4
	m := New(cfg)
	loc := Loc{Channel: 0, Bank: 0, Row: 1}
	// Issue far more than QueueDepth requests at cycle 0; the 5th must be
	// pushed past the completion of the 1st.
	var dones []uint64
	for i := 0; i < 6; i++ {
		dones = append(dones, m.Access(0, loc, false, 80))
	}
	if m.Stats().QueueStallCycles == 0 {
		t.Fatal("expected queue stalls with depth 4 and 6 concurrent requests")
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] <= dones[i-1] {
			t.Fatal("completions must be monotonic for same-bank requests")
		}
	}
}

func TestFRFCFSBatchingAbsorbsConflicts(t *testing.T) {
	m := New(HBMConfig()) // default BatchFactor 4
	a := Loc{Channel: 0, Bank: 0, Row: 1}
	b := Loc{Channel: 0, Bank: 0, Row: 2}
	now := uint64(0)
	for i := 0; i < 16; i++ { // alternate rows: every access conflicts
		loc := a
		if i%2 == 1 {
			loc = b
		}
		now = m.Access(now, loc, false, 80)
	}
	s := m.Stats()
	if s.RowConflicts == 0 {
		t.Fatal("alternating rows must conflict")
	}
	if s.RowBatched == 0 {
		t.Fatal("batching must absorb some conflicts")
	}
	// ~3/4 of conflicts ride a batch.
	frac := float64(s.RowBatched) / float64(s.RowConflicts)
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("batched fraction = %.2f, want ~0.75", frac)
	}
	// BatchFactor 1 must cost strictly more time for the same pattern.
	cfg := HBMConfig()
	cfg.BatchFactor = 1
	m1 := New(cfg)
	now1 := uint64(0)
	for i := 0; i < 16; i++ {
		loc := a
		if i%2 == 1 {
			loc = b
		}
		now1 = m1.Access(now1, loc, false, 80)
	}
	if now1 <= now {
		t.Fatalf("unbatched chain (%d) should be slower than batched (%d)", now1, now)
	}
}

func TestDecodeRowGranularityKeepsNeighborsTogether(t *testing.T) {
	m := New(HBMConfig()) // 2KB interleave
	// Addresses within one 2KB chunk decode identically.
	a := m.Decode(0)
	b := m.Decode(2047)
	if a != b {
		t.Fatalf("same-row addresses split: %+v vs %+v", a, b)
	}
	// Next chunk moves to the next channel.
	c := m.Decode(2048)
	if c.Channel != (a.Channel+1)%4 {
		t.Fatalf("chunk interleave broken: %+v -> %+v", a, c)
	}
}

func TestDecodeLineGranularity(t *testing.T) {
	m := New(DDRConfig()) // 64B interleave, 1 channel
	a := m.Decode(0)
	b := m.Decode(64)
	if a.Channel != 0 || b.Channel != 0 {
		t.Fatal("single channel config must always use channel 0")
	}
	// 2KB row / 64B = 32 chunks per row; address 64*32 starts bank 1.
	c := m.Decode(64 * 32)
	if c.Bank != 1 || c.Row != 0 {
		t.Fatalf("bank rotation broken: %+v", c)
	}
}

// Property: bus reservations never overlap and stay sorted — the
// gap-filling scheduler must behave like a real single data bus.
func TestQuickBusReservationsDisjoint(t *testing.T) {
	f := func(times []uint16, durs []uint8) bool {
		ch := &channel{}
		for i, tr := range times {
			dur := uint64(1)
			if i < len(durs) {
				dur += uint64(durs[i]) % 16
			}
			start := ch.reserveBus(uint64(tr), dur)
			if start < uint64(tr) {
				return false
			}
		}
		for i := 1; i < ch.busyLen(); i++ {
			if ch.busAt(i).start < ch.busAt(i-1).end {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBusGapFilling(t *testing.T) {
	ch := &channel{}
	// Reserve a late window, then an early one: the early transfer must
	// land in the idle gap before it, not behind it.
	late := ch.reserveBus(1000, 10)
	early := ch.reserveBus(5, 10)
	if late != 1000 {
		t.Fatalf("late start = %d", late)
	}
	if early != 5 {
		t.Fatalf("early transfer should use the idle gap, started at %d", early)
	}
	// A transfer that does not fit before the late window goes after it.
	big := ch.reserveBus(995, 10)
	if big != 1010 {
		t.Fatalf("conflicting transfer start = %d, want 1010", big)
	}
}

func TestInFlight(t *testing.T) {
	m := New(HBMConfig())
	loc := Loc{Channel: 2, Bank: 3, Row: 7}
	if m.InFlight(0, loc) != 0 {
		t.Fatal("fresh device has nothing in flight")
	}
	var done uint64
	for i := 0; i < 5; i++ {
		done = m.Access(0, loc, false, 80)
	}
	if n := m.InFlight(0, loc); n != 5 {
		t.Fatalf("in flight at 0 = %d, want 5", n)
	}
	if n := m.InFlight(done, loc); n != 0 {
		t.Fatalf("in flight after completion = %d, want 0", n)
	}
	// Other channels are independent.
	if n := m.InFlight(0, Loc{Channel: 0}); n != 0 {
		t.Fatalf("unused channel reports %d in flight", n)
	}
}

func TestWriteStats(t *testing.T) {
	m := New(DDRConfig())
	m.Access(0, Loc{}, true, 64)
	m.Access(0, Loc{}, false, 64)
	s := m.Stats()
	if s.Writes != 1 || s.Reads != 1 || s.BytesWritten != 64 || s.BytesRead != 64 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Accesses() != 2 {
		t.Fatalf("Accesses = %d", s.Accesses())
	}
	m.ResetStats()
	if m.Stats().Accesses() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestBurstCycles(t *testing.T) {
	m := New(HBMConfig()) // 16B beats, 2 cycles each
	cases := map[int]uint64{80: 10, 64: 8, 16: 2, 1: 2, 17: 4}
	for bytes, want := range cases {
		if got := m.BurstCycles(bytes); got != want {
			t.Fatalf("BurstCycles(%d) = %d, want %d", bytes, got, want)
		}
	}
}

func TestUtilizationBounded(t *testing.T) {
	m := New(HBMConfig())
	rng := rand.New(rand.NewPCG(1, 1))
	now := uint64(0)
	for i := 0; i < 1000; i++ {
		loc := Loc{Channel: int(rng.UintN(4)), Bank: int(rng.UintN(16)), Row: uint64(rng.UintN(64))}
		done := m.Access(now, loc, rng.UintN(4) == 0, 80)
		if done <= now {
			t.Fatal("completion must be after issue")
		}
		now += uint64(rng.UintN(20))
	}
	final := now + 10000
	if u := m.Utilization(final); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v, want (0, 1]", u)
	}
}

// Property: completion time is always strictly greater than issue time and
// at least the burst length; statistics balance.
func TestQuickAccessInvariants(t *testing.T) {
	m := New(HBMConfig())
	f := func(chRaw, bankRaw uint8, row uint16, now uint32, write bool) bool {
		loc := Loc{Channel: int(chRaw) % 4, Bank: int(bankRaw) % 16, Row: uint64(row)}
		done := m.Access(uint64(now), loc, write, 80)
		return done >= uint64(now)+m.BurstCycles(80)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.RowHits+s.RowMisses+s.RowConflicts != s.Accesses() {
		t.Fatalf("row outcome counts %d do not sum to accesses %d",
			s.RowHits+s.RowMisses+s.RowConflicts, s.Accesses())
	}
}

// Property: Decode is stable and within geometry bounds for arbitrary
// addresses.
func TestQuickDecodeBounds(t *testing.T) {
	m := New(HBMConfig())
	f := func(addr uint64) bool {
		loc := m.Decode(addr)
		if loc != m.Decode(addr) {
			return false
		}
		return loc.Channel >= 0 && loc.Channel < 4 && loc.Bank >= 0 && loc.Bank < 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	m := New(HBMConfig())
	rng := rand.New(rand.NewPCG(1, 2))
	locs := make([]Loc, 1024)
	for i := range locs {
		locs[i] = Loc{Channel: int(rng.UintN(4)), Bank: int(rng.UintN(16)), Row: uint64(rng.UintN(256))}
	}
	b.ResetTimer()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		m.Access(now, locs[i%len(locs)], false, 80)
		now += 4
	}
}
