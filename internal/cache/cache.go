// Package cache implements a set-associative write-back SRAM cache model
// with true-LRU replacement. The simulator uses it for the shared L3 (the
// level whose hit rate DICE's neighbor-line installs improve, Table 6) and
// for the private L1/L2 levels in the full-hierarchy example. The model
// tracks tags, validity and dirty state; data bytes are owned by the
// simulator's deterministic data sources, so the cache itself stays
// compact even at large geometries.
package cache

import "fmt"

// Config describes a cache geometry.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineBytes int // line size (64 throughout the paper)
	// HitLatency is the access latency in CPU cycles charged on a hit.
	HitLatency int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache: geometry must be positive: %+v", c)
	case c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("cache: size %d not divisible by ways*line %d",
			c.SizeBytes, c.Ways*c.LineBytes)
	case c.HitLatency < 0:
		return fmt.Errorf("cache: negative hit latency")
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	// Hits counts Lookups that found their line.
	Hits uint64
	// Misses counts Lookups that did not.
	Misses uint64
	// Installs counts Install calls, re-installs of a resident line
	// included.
	Installs uint64
	// Evictions counts valid lines displaced by an Install.
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// HitRate returns hits / (hits + misses).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a set-associative cache indexed by 64-byte line address.
// State is stored as parallel flat arrays (set i occupies slots
// [i*Ways, (i+1)*Ways)): the probe loop scans only the contiguous tag
// words, touching two cache lines for a 16-way set instead of the
// eight a struct-per-way layout costs, and power-of-two set counts
// index with a mask instead of a hardware divide. Both effects are
// measurable because the L3 sits on the simulator's per-reference
// path. A slot is valid iff its used tick is nonzero (ticks start
// at 1).
type Cache struct {
	cfg     Config
	tags    []uint64
	used    []uint64 // LRU tick; 0 = invalid slot
	dirty   []bool
	nsets   uint64
	setMask uint64 // nsets-1 when nsets is a power of two, else 0
	tick    uint64
	stats   Stats
}

// New builds a cache. It panics on invalid configuration (configurations
// are static experiment inputs).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	slots := nsets * cfg.Ways
	c := &Cache{
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
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.nsets) }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics; contents are preserved.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// setBase returns the first slot index of the set holding line.
func (c *Cache) setBase(line uint64) int {
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
func (c *Cache) probe(line uint64) int {
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
func (c *Cache) Lookup(line uint64, write bool) bool {
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
func (c *Cache) Contains(line uint64) bool {
	return c.probe(line) >= 0
}

// Victim describes a line displaced by Install.
type Victim struct {
	// Line is the displaced line's address.
	Line uint64
	// Dirty reports whether the line must be written back.
	Dirty bool
}

// Install fills a line (write-allocate), evicting the LRU way if the set
// is full. It returns the victim, if any. Installing a line that is
// already resident refreshes its LRU state and ORs in dirty.
func (c *Cache) Install(line uint64, dirty bool) (Victim, bool) {
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
func (c *Cache) OccupiedLines() int {
	n := 0
	for i := range c.used {
		if c.used[i] != 0 {
			n++
		}
	}
	return n
}
