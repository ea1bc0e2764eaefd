package dcache

import "fmt"

// scanOccupiedLines counts resident lines by walking every set: the
// reference the running occupancy counter behind OccupiedLines is
// checked against.
func (c *Cache) scanOccupiedLines() int {
	n := 0
	for i := range c.sets {
		n += c.sets[i].lineCount()
	}
	return n
}

// forgetSize clears the memoized sizes of line and of the pair it
// belongs to, so the next lookup re-reads the data source. Sizes are
// otherwise fixed for a cache's lifetime; tests that change a line's
// content use this to move its DICE install location.
func (c *Cache) forgetSize(line uint64) {
	c.sizeMemo.cell(line).single = 0
	c.sizeMemo.cell(line &^ 1).pair = 0
}

// newFresh is New on newly allocated set storage, bypassing the pool:
// the reference a cache on recycled storage is compared with.
func newFresh(cfg Config) *Cache { return build(cfg, newStorage) }

// newOn is New on the given storage, bypassing the pool: with
// detachStorage it hands one storage from a cache to the next
// deterministically, where the pool may drop a released storage.
func newOn(cfg Config, s *storage) *Cache {
	return build(cfg, func(int) *storage { return s })
}

// residue describes the first thing a reset left behind in s — a set
// still holding slots, a set still listed as touched, carving not
// rewound, a nonzero memo cell, a memo overflow map — or returns ""
// when s is as empty as a fresh storage.
func (s *storage) residue() string {
	for i := range s.sets {
		if e := s.sets[i].entries; cap(e) != 0 {
			return fmt.Sprintf("set %d still holds %d lines in %d slots", i, len(e), cap(e))
		}
	}
	if len(s.touched) != 0 {
		return fmt.Sprintf("%d sets still listed as touched", len(s.touched))
	}
	if s.next != 0 || s.chunk != nil {
		return fmt.Sprintf("carving not rewound: chunk %d, %d slots left", s.next, len(s.chunk))
	}
	for pi, p := range s.sizeMemo.pages {
		if p == nil {
			continue
		}
		for ci, cell := range p {
			if cell != (sizeCell{}) {
				return fmt.Sprintf("memo cell of line %d = %+v", pi*memoPageLines+ci, cell)
			}
		}
	}
	if s.sizeMemo.overflow != nil {
		return fmt.Sprintf("memo overflow map of %d cells", len(s.sizeMemo.overflow))
	}
	return ""
}
