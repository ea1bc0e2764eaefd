package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return New(Config{SizeBytes: 4 * 64 * 8, Ways: 4, LineBytes: 64, HitLatency: 10})
}

func TestValidate(t *testing.T) {
	if err := (Config{SizeBytes: 1024, Ways: 4, LineBytes: 64}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{SizeBytes: 1000, Ways: 4, LineBytes: 64}, // not divisible
		{SizeBytes: 1024, Ways: 0, LineBytes: 64}, // no ways
		{SizeBytes: 1024, Ways: 4, LineBytes: 64, HitLatency: -1},
		{SizeBytes: 256 * 64, Ways: 256, LineBytes: 64}, // count is a uint8
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	// The widest set the per-set count holds is accepted, and New
	// builds it.
	widest := Config{SizeBytes: 255 * 64, Ways: 255, LineBytes: 64}
	if err := widest.Validate(); err != nil {
		t.Fatal(err)
	}
	c := New(widest)
	for i := uint64(0); i < 300; i++ {
		c.Install(i, false)
	}
	if got := c.OccupiedLines(); got != 255 {
		t.Fatalf("255-way set holds %d lines, want 255", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Lookup(100, false) {
		t.Fatal("empty cache must miss")
	}
	c.Install(100, false)
	if !c.Lookup(100, false) {
		t.Fatal("installed line must hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Installs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 8 sets, 4 ways
	sets := uint64(c.Sets())
	// Fill one set with 4 lines, touch the first again, install a 5th:
	// the 2nd line (true LRU) must be the victim.
	lines := []uint64{0, sets, 2 * sets, 3 * sets}
	for _, l := range lines {
		c.Install(l, false)
	}
	c.Lookup(0, false)
	v, evicted := c.Install(4*sets, false)
	if !evicted || v.Line != sets {
		t.Fatalf("victim = %+v (evicted=%v), want line %d", v, evicted, sets)
	}
	if c.Contains(sets) {
		t.Fatal("evicted line still resident")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := smallCache()
	sets := uint64(c.Sets())
	c.Install(0, true)
	for i := uint64(1); i <= 4; i++ {
		c.Install(i*sets, false)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Writebacks != 1 {
		t.Fatalf("stats = %+v, want one dirty eviction", s)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := smallCache()
	sets := uint64(c.Sets())
	c.Install(0, false)
	c.Lookup(0, true) // write hit
	// Evict it and check the writeback.
	for i := uint64(1); i <= 4; i++ {
		c.Install(i*sets, false)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("write hit should have marked the line dirty")
	}
}

func TestReinstallRefreshesAndMergesDirty(t *testing.T) {
	c := smallCache()
	sets := uint64(c.Sets())
	c.Install(7, false)
	if v, evicted := c.Install(7, true); evicted {
		t.Fatalf("reinstall must not evict, got %+v", v)
	}
	// Evict it and check the writeback.
	for i := uint64(1); i <= 4; i++ {
		c.Install(7+i*sets, false)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("reinstall should have merged dirty=true")
	}
}

func TestOccupiedLines(t *testing.T) {
	c := smallCache()
	for i := uint64(0); i < 10; i++ {
		c.Install(i, false)
	}
	if got := c.OccupiedLines(); got != 10 {
		t.Fatalf("occupied = %d, want 10", got)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

// Property: after Install(line), Contains(line) is always true, and the
// number of valid lines never exceeds capacity.
func TestQuickInstallContains(t *testing.T) {
	c := New(Config{SizeBytes: 64 * 64 * 2, Ways: 2, LineBytes: 64})
	capacity := 64 * 2
	f := func(line uint64, dirty bool) bool {
		c.Install(line, dirty)
		if !c.Contains(line) {
			return false
		}
		return c.OccupiedLines() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: stats balance — installs = evictions + occupied (when every
// install is a distinct line).
func TestStatsBalance(t *testing.T) {
	c := smallCache()
	for i := uint64(0); i < 1000; i++ {
		c.Install(i*13+1, i%3 == 0)
	}
	s := c.Stats()
	if int(s.Installs) != int(s.Evictions)+c.OccupiedLines() {
		t.Fatalf("installs=%d evictions=%d occupied=%d",
			s.Installs, s.Evictions, c.OccupiedLines())
	}
}

func TestSmallWorkingSetAlwaysHitsAfterWarmup(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, HitLatency: 30})
	rng := rand.New(rand.NewPCG(9, 9))
	working := make([]uint64, 512)
	for i := range working {
		working[i] = uint64(rng.UintN(1 << 20))
	}
	for _, l := range working { // warm
		if !c.Lookup(l, false) {
			c.Install(l, false)
		}
	}
	c.ResetStats()
	for i := 0; i < 10000; i++ {
		l := working[rng.IntN(len(working))]
		if !c.Lookup(l, false) {
			t.Fatalf("line %d missed after warmup", l)
		}
	}
	if c.Stats().HitRate() != 1 {
		t.Fatal("warmed working set should hit 100%")
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(Config{SizeBytes: 8 << 20, Ways: 16, LineBytes: 64})
	for i := uint64(0); i < 1024; i++ {
		c.Install(i, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i)%1024, false)
	}
}

func BenchmarkInstallEvict(b *testing.B) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Install(uint64(i), false)
	}
}

// BenchmarkL3Traffic replays the simulator's L3 access shape on its
// smallest geometry, 64 sets of 16 ways: a Lookup per reference and,
// on a miss, an Install of the demand line plus a second Install of
// its neighbour, the extra line a DICE L4 read delivers. Three in four
// references go to a hot region three quarters the cache's size and
// the rest to a cold one, which puts the Lookup hit rate near the 55%
// sim-dice's L3 shows.
func BenchmarkL3Traffic(b *testing.B) {
	c := New(Config{SizeBytes: 64 * 16 * 64, Ways: 16, LineBytes: 64, HitLatency: 30})
	rng := rand.New(rand.NewPCG(3, 5))
	stream := make([]uint64, 1<<16)
	for i := range stream {
		if rng.IntN(4) > 0 {
			stream[i] = uint64(rng.IntN(768))
		} else {
			stream[i] = 1<<20 + uint64(rng.IntN(1<<20))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := stream[i&(len(stream)-1)]
		write := i&7 == 0
		if !c.Lookup(line, write) {
			c.Install(line, write)
			c.Install(line^1, false)
		}
	}
	b.ReportMetric(c.Stats().HitRate(), "hit_rate")
}
