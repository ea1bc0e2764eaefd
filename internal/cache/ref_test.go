package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// The executable specification of Cache: the tick-LRU cache the
// recency-ordered one replaced, kept verbatim apart from its name.
// Every slot carries the tick of its last touch and the victim is the
// minimum tick of the set; the differential tests below require Cache
// to return exactly what it returns, operation by operation.

// refCache is a set-associative cache indexed by 64-byte line address.
// State is stored as parallel flat arrays (set i occupies slots
// [i*Ways, (i+1)*Ways)): the probe loop scans only the contiguous tag
// words, touching two cache lines for a 16-way set instead of the
// eight a struct-per-way layout costs, and power-of-two set counts
// index with a mask instead of a hardware divide. Both effects are
// measurable because the L3 sits on the simulator's per-reference
// path. A slot is valid iff its used tick is nonzero (ticks start
// at 1).
type refCache struct {
	cfg     Config
	tags    []uint64
	used    []uint64 // LRU tick; 0 = invalid slot
	dirty   []bool
	nsets   uint64
	setMask uint64 // nsets-1 when nsets is a power of two, else 0
	tick    uint64
	stats   Stats
}

// newRef builds a reference cache. It panics on invalid configuration
// (configurations are static experiment inputs).
func newRef(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	slots := nsets * cfg.Ways
	c := &refCache{
		cfg:   cfg,
		nsets: uint64(nsets),
		tags:  make([]uint64, slots),
		used:  make([]uint64, slots),
		dirty: make([]bool, slots),
	}
	if c.nsets&(c.nsets-1) == 0 {
		c.setMask = c.nsets - 1
	}
	return c
}

// Config returns the cache geometry.
func (c *refCache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *refCache) Sets() int { return int(c.nsets) }

// Stats returns a copy of the accumulated statistics.
func (c *refCache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics; contents are preserved.
func (c *refCache) ResetStats() { c.stats = Stats{} }

// setBase returns the first slot index of the set holding line.
func (c *refCache) setBase(line uint64) int {
	var idx uint64
	if c.setMask != 0 {
		idx = line & c.setMask
	} else {
		idx = line % c.nsets
	}
	return int(idx) * c.cfg.Ways
}

// probe returns the slot index of line, or -1. The scan reads only the
// tag words; validity is checked on the (rare) match.
func (c *refCache) probe(line uint64) int {
	base := c.setBase(line)
	tags := c.tags[base : base+c.cfg.Ways]
	for i := range tags {
		if tags[i] == line && c.used[base+i] != 0 {
			return base + i
		}
	}
	return -1
}

// Lookup probes for a line, updating LRU on a hit. When write is true a
// hit marks the line dirty (write-back policy).
func (c *refCache) Lookup(line uint64, write bool) bool {
	c.tick++
	if i := c.probe(line); i >= 0 {
		c.used[i] = c.tick
		if write {
			c.dirty[i] = true
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Contains reports residency without touching LRU or statistics.
func (c *refCache) Contains(line uint64) bool {
	return c.probe(line) >= 0
}

// Install fills a line (write-allocate), evicting the LRU way if the set
// is full. It returns the victim, if any. Installing a line that is
// already resident refreshes its LRU state and ORs in dirty.
func (c *refCache) Install(line uint64, dirty bool) (Victim, bool) {
	c.tick++
	c.stats.Installs++
	// Already resident (can happen when a prefetch races a demand fill).
	if i := c.probe(line); i >= 0 {
		c.used[i] = c.tick
		c.dirty[i] = c.dirty[i] || dirty
		return Victim{}, false
	}
	base := c.setBase(line)
	used := c.used[base : base+c.cfg.Ways]
	// Free way, else the LRU way: invalid slots carry tick 0, so the
	// minimum over used covers both cases in one scan.
	lru := 0
	for i := 1; i < len(used); i++ {
		if used[i] < used[lru] {
			lru = i
		}
	}
	slot := base + lru
	var v Victim
	evicted := used[lru] != 0
	if evicted {
		v = Victim{Line: c.tags[slot], Dirty: c.dirty[slot]}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	c.tags[slot] = line
	c.used[slot] = c.tick
	c.dirty[slot] = dirty
	return v, evicted
}

// OccupiedLines returns the number of valid lines (for capacity reports).
func (c *refCache) OccupiedLines() int {
	n := 0
	for i := range c.used {
		if c.used[i] != 0 {
			n++
		}
	}
	return n
}

// refGeometries are the differential tests' cache shapes: 1-, 2-, 4-
// and 16-way sets, each with a power-of-two set count (masked index)
// and an odd one (modulo index).
var refGeometries = []Config{
	{SizeBytes: 8 * 64, Ways: 1, LineBytes: 64},
	{SizeBytes: 7 * 64, Ways: 1, LineBytes: 64},
	{SizeBytes: 4 * 2 * 64, Ways: 2, LineBytes: 64},
	{SizeBytes: 5 * 2 * 64, Ways: 2, LineBytes: 64},
	{SizeBytes: 8 * 4 * 64, Ways: 4, LineBytes: 64},
	{SizeBytes: 3 * 4 * 64, Ways: 4, LineBytes: 64},
	{SizeBytes: 4 * 16 * 64, Ways: 16, LineBytes: 64},
	{SizeBytes: 3 * 16 * 64, Ways: 16, LineBytes: 64},
}

// diffOps drives one operation stream through a Cache and a refCache
// of geometry cfg and reports the first divergence. Each op is 3 bytes:
// the operation (Lookup, Contains, Install; bit 7 sets write/dirty) and
// a 16-bit line drawn from a small range, so sets fill, lines recur
// and both hits and evictions are common.
func diffOps(cfg Config, ops []byte) string {
	c, r := New(cfg), newRef(cfg)
	span := uint64(3 * c.Sets() * cfg.Ways)
	for i := 0; i+3 <= len(ops); i += 3 {
		op, flag := ops[i]%3, ops[i]&0x80 != 0
		line := (uint64(ops[i+1]) | uint64(ops[i+2])<<8) % span
		switch op {
		case 0:
			if got, want := c.Lookup(line, flag), r.Lookup(line, flag); got != want {
				return fmt.Sprintf("op %d Lookup(%d, %v) = %v, reference %v", i/3, line, flag, got, want)
			}
		case 1:
			if got, want := c.Contains(line), r.Contains(line); got != want {
				return fmt.Sprintf("op %d Contains(%d) = %v, reference %v", i/3, line, got, want)
			}
		default:
			gv, ge := c.Install(line, flag)
			wv, we := r.Install(line, flag)
			if gv != wv || ge != we {
				return fmt.Sprintf("op %d Install(%d, %v) = %+v %v, reference %+v %v",
					i/3, line, flag, gv, ge, wv, we)
			}
		}
		if got, want := c.Stats(), r.Stats(); got != want {
			return fmt.Sprintf("op %d stats %+v, reference %+v", i/3, got, want)
		}
		if got, want := c.OccupiedLines(), r.OccupiedLines(); got != want {
			return fmt.Sprintf("op %d occupied %d, reference %d", i/3, got, want)
		}
	}
	return ""
}

// TestQuickCacheMatchesReference runs random operation streams over
// every reference geometry and requires Cache and the tick-LRU
// reference to agree on every hit, victim, eviction, statistic and
// occupancy count.
func TestQuickCacheMatchesReference(t *testing.T) {
	for _, cfg := range refGeometries {
		f := func(ops []byte) bool {
			if msg := diffOps(cfg, ops); msg != "" {
				t.Logf("%+v: %s", cfg, msg)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
	// Long streams as well: quick's slices are short, and a 16-way set
	// needs many operations to reach its deep recency positions.
	rng := rand.New(rand.NewPCG(11, 29))
	ops := make([]byte, 3*20000)
	for _, cfg := range refGeometries {
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		if msg := diffOps(cfg, ops); msg != "" {
			t.Fatalf("%+v: %s", cfg, msg)
		}
	}
}

// FuzzCacheAgainstReference feeds arbitrary operation streams to
// Cache and the tick-LRU reference; the geometry byte picks one of the
// reference geometries.
func FuzzCacheAgainstReference(f *testing.F) {
	f.Add(byte(6), []byte{2, 0, 0, 2, 4, 0, 0, 0, 0, 130, 8, 0})
	f.Add(byte(1), []byte{2, 1, 0, 2, 8, 0, 0, 1, 0, 2, 15, 0, 1, 8, 0})
	f.Fuzz(func(t *testing.T, geom byte, ops []byte) {
		cfg := refGeometries[int(geom)%len(refGeometries)]
		if msg := diffOps(cfg, ops); msg != "" {
			t.Fatalf("%+v: %s", cfg, msg)
		}
	})
}
