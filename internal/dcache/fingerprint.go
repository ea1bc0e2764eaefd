package dcache

// Fingerprint digests the cache's complete architectural state — every
// set's resident lines in LRU order with their flags and sizes, plus
// per-set fault/quarantine state — into one FNV-1a hash. Two caches
// that processed identical access streams have identical fingerprints;
// the differential tests use it to prove the event-driven and
// cycle-stepped simulator cores leave byte-identical cache contents,
// not merely matching counters. Map state is folded in by iterating
// set indices in order, never by map iteration, so the digest is
// deterministic. Take it before Release: a released cache has given its
// sets back and panics here.
func (c *Cache) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mixBool := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	for si := range c.sets {
		s := &c.sets[si]
		mix(uint64(len(s.entries)))
		for i := range s.entries {
			e := &s.entries[i]
			mix(e.line)
			mixBool(e.dirty)
			mixBool(e.bai)
			mix(uint64(e.size))
			mixBool(e.sharedTag)
		}
	}
	if c.faultCount != nil {
		for si := range c.sets {
			if n := c.faultCount[uint64(si)]; n != 0 {
				mix(uint64(si))
				mix(uint64(n))
			}
			if c.quarantined[uint64(si)] {
				mix(uint64(si))
			}
		}
	}
	return h
}
