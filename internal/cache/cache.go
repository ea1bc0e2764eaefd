// Package cache implements a set-associative write-back SRAM cache model
// with true-LRU replacement. The simulator uses it for the shared L3 (the
// level whose hit rate DICE's neighbor-line installs improve, Table 6) and
// for the private L1/L2 levels in the full-hierarchy example. The model
// tracks tags, validity and dirty state; data bytes are owned by the
// simulator's deterministic data sources, so the cache itself stays
// compact even at large geometries.
package cache

import (
	"fmt"
	"math"
)

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
	case c.Ways > math.MaxUint8:
		return fmt.Errorf("cache: %d ways exceed the per-set count's %d", c.Ways, math.MaxUint8)
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
// [i*Ways, (i+1)*Ways)) that keep each set's valid lines first and in
// recency order, most recent in front, with a per-set valid count. A
// probe scans only the valid tag words; a hit or a fill moves its line
// to the front with one short copy, and the LRU victim is simply the
// last valid slot. Power-of-two set counts index with a mask instead of
// a hardware divide. These effects are measurable because the L3 sits
// on the simulator's per-reference path.
type Cache struct {
	cfg     Config
	tags    []uint64
	dirty   []bool
	valid   []uint8 // valid lines per set, in the set's first slots
	nsets   uint64
	setMask uint64 // nsets-1 when nsets is a power of two, else 0
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
		dirty: make([]bool, slots),
		valid: make([]uint8, nsets),
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

// probe returns line's set, the set's first slot, and line's recency
// position in the set (0 = most recent), or -1 when it is not resident.
func (c *Cache) probe(line uint64) (set, base, pos int) {
	if c.setMask != 0 {
		set = int(line & c.setMask)
	} else {
		set = int(line % c.nsets)
	}
	base = set * c.cfg.Ways
	for i, t := range c.tags[base : base+int(c.valid[set])] {
		if t == line {
			return set, base, i
		}
	}
	return set, base, -1
}

// pushFront shifts the set's first n slots back by one and puts
// (line, dirty) in front, the most recent position; a hit already in
// front (n == 0) copies nothing.
func (c *Cache) pushFront(base, n int, line uint64, dirty bool) {
	if n > 0 {
		copy(c.tags[base+1:base+n+1], c.tags[base:base+n])
		copy(c.dirty[base+1:base+n+1], c.dirty[base:base+n])
	}
	c.tags[base], c.dirty[base] = line, dirty
}

// Lookup probes for a line, updating LRU on a hit. When write is true a
// hit marks the line dirty (write-back policy).
func (c *Cache) Lookup(line uint64, write bool) bool {
	_, base, pos := c.probe(line)
	if pos < 0 {
		c.stats.Misses++
		return false
	}
	c.pushFront(base, pos, line, c.dirty[base+pos] || write)
	c.stats.Hits++
	return true
}

// Contains reports residency without touching LRU or statistics.
func (c *Cache) Contains(line uint64) bool {
	_, _, pos := c.probe(line)
	return pos >= 0
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
	c.stats.Installs++
	set, base, pos := c.probe(line)
	// Already resident (can happen when a prefetch races a demand fill).
	if pos >= 0 {
		c.pushFront(base, pos, line, c.dirty[base+pos] || dirty)
		return Victim{}, false
	}
	n := int(c.valid[set])
	var v Victim
	evicted := n == c.cfg.Ways
	if evicted {
		n--
		v = Victim{Line: c.tags[base+n], Dirty: c.dirty[base+n]}
		c.stats.Evictions++
		if v.Dirty {
			c.stats.Writebacks++
		}
	} else {
		c.valid[set]++
	}
	c.pushFront(base, n, line, dirty)
	return v, evicted
}

// OccupiedLines returns the number of valid lines (for capacity reports).
func (c *Cache) OccupiedLines() int {
	n := 0
	for _, v := range c.valid {
		n += int(v)
	}
	return n
}
