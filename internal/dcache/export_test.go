package dcache

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
