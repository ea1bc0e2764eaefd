package compress

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// SizeCache memoizes compressed-size results keyed by line content.
// Synthetic data generation is deterministic per address, and the cache
// re-sizes the same lines on every repack, so identical 64-byte
// contents recur constantly; hashing the content once is far cheaper
// than re-running the FPC/BDI fit checks. The cache is a bounded
// hash-indexed store with CLOCK-style second-chance eviction —
// deterministic (no map iteration, no randomized hashing) so cached
// and uncached runs produce byte-identical simulation results.
//
// A cache sizes with the one algorithm it was built for (see
// NewSizeCache), so its keys are pure content hashes and a stored size
// stays correct for as long as the cache lives, across simulations.
//
// A SizeCache is not safe for concurrent use. A simulation borrows one
// with AcquireSizeCache, owns it alone until it calls Release, and does
// not touch it afterwards; the next simulation sizing with the same
// algorithm may then start from its warm entries.
type SizeCache struct {
	alg     AlgID
	entries []sizeCacheEntry
	mask    uint64
	hand    int
	stats   SizeCacheStats
}

type sizeCacheEntry struct {
	key  uint64
	size int32
	live bool
	used bool
}

// SizeCacheStats counts cache traffic since the cache was acquired (or
// built, for a NewSizeCache cache). On an acquired cache the misses
// depend on what earlier owners left in it.
type SizeCacheStats struct {
	// Hits counts lookups answered from a stored entry.
	Hits uint64
	// Misses counts lookups that ran the sizer and stored its result.
	Misses uint64
	// Evictions counts entries displaced to make room for a miss.
	Evictions uint64
}

// NewSizeCache returns a cache that sizes lines with alg (see SizeWith:
// AlgFPC, AlgBDI, or the zero AlgID for the hybrid FPC+BDI selector),
// bounded to capacity entries (rounded up to a power of two, minimum
// 64). A capacity of 0 picks a default that comfortably covers a
// simulated workload's working set of distinct line contents.
func NewSizeCache(capacity int, alg AlgID) *SizeCache {
	if capacity <= 0 {
		capacity = defaultSizeCacheCap
	}
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &SizeCache{
		alg:     alg,
		entries: make([]sizeCacheEntry, n),
		mask:    uint64(n - 1),
	}
}

// defaultSizeCacheCap is NewSizeCache's capacity when given 0, and the
// capacity of every pooled cache.
const defaultSizeCacheCap = 1 << 15

// sizeCachePools hold released default-capacity caches, one pool per
// algorithm: keys are bare content hashes, so a cache may only ever be
// handed to a run sizing with the algorithm that filled it. Indexed by
// AlgID; the AlgZCA slot is unused.
var sizeCachePools [AlgBDI + 1]sync.Pool

// pooledAlg reports whether alg has a pool: hybrid, FPC or BDI.
func pooledAlg(alg AlgID) bool { return alg == AlgNone || alg == AlgFPC || alg == AlgBDI }

// AcquireSizeCache returns a default-capacity cache that sizes with alg
// (AlgFPC, AlgBDI, or the zero AlgID for hybrid), with zeroed Stats. It
// is warm when an earlier owner released one for the same algorithm,
// cold otherwise. Idle pooled caches are dropped by the garbage
// collector, so the pools hold at most one cache per simulation that
// ran at the same time. It panics on any other algorithm.
func AcquireSizeCache(alg AlgID) *SizeCache {
	if !pooledAlg(alg) {
		panic(fmt.Sprintf("compress: AcquireSizeCache(%v): want hybrid, fpc or bdi", alg))
	}
	if c, ok := sizeCachePools[alg].Get().(*SizeCache); ok {
		c.stats = SizeCacheStats{}
		return c
	}
	return NewSizeCache(0, alg)
}

// Release hands c back to its algorithm's pool for a later
// AcquireSizeCache. The caller must not use c afterwards, and must
// release it at most once: a second Release could give two owners the
// same cache. A cache of any capacity other than the default, or of an
// algorithm AcquireSizeCache does not serve, is left to the garbage
// collector.
func (c *SizeCache) Release() {
	if len(c.entries) != defaultSizeCacheCap || !pooledAlg(c.alg) {
		return
	}
	sizeCachePools[c.alg].Put(c)
}

// Stats returns the hit/miss/eviction counters.
func (c *SizeCache) Stats() SizeCacheStats { return c.stats }

// Len returns the number of live entries.
func (c *SizeCache) Len() int {
	n := 0
	for i := range c.entries {
		if c.entries[i].live {
			n++
		}
	}
	return n
}

// hashLine mixes the 64 line bytes into one 64-bit key. It is a fixed
// function of the content (xxhash-style avalanche over eight words), so
// results are reproducible across runs and machines — unlike
// hash/maphash, whose seed varies per process.
func hashLine(line []byte) uint64 {
	const (
		m1 = 0x9E3779B185EBCA87
		m2 = 0xC2B2AE3D27D4EB4F
	)
	h := uint64(m1)
	h *= LineSize
	for i := 0; i < LineSize; i += 8 {
		w := binary.LittleEndian.Uint64(line[i : i+8])
		h ^= (w * m1) ^ ((w >> 29) * m2)
		h = (h<<31 | h>>33) * m1
	}
	h ^= h >> 33
	h *= m2
	h ^= h >> 29
	return h
}

// PairKey combines two line hashes into one pair key, order-sensitive
// (pair compression is asymmetric: A donates the base).
func pairKey(ha, hb uint64) uint64 {
	h := ha*0x9E3779B185EBCA87 + 0x27D4EB2F165667C5
	h ^= hb * 0xC2B2AE3D27D4EB4F
	h ^= h >> 31
	h *= 0x9E3779B185EBCA87
	h ^= h >> 29
	return h
}

// lookup returns the memoized size for key, or computes it via f and
// stores it. Probing is open-addressed with a small bounded window;
// when the window is full, the CLOCK hand evicts the first
// not-recently-used entry.
func (c *SizeCache) lookup(key uint64, f func() int) int {
	const window = 8
	idx := key & c.mask
	free := -1
	for i := 0; i < window; i++ {
		j := (idx + uint64(i)) & c.mask
		e := &c.entries[j]
		if !e.live {
			if free < 0 {
				free = int(j)
			}
			continue
		}
		if e.key == key {
			e.used = true
			c.stats.Hits++
			return int(e.size)
		}
	}
	c.stats.Misses++
	size := f()
	if free < 0 {
		free = c.evictFrom(idx, window)
	}
	c.entries[free] = sizeCacheEntry{key: key, size: int32(size), live: true, used: true}
	return size
}

// evictFrom frees one slot inside the probe window starting at idx,
// giving recently used entries a second chance.
func (c *SizeCache) evictFrom(idx uint64, window int) int {
	for {
		j := (idx + uint64(c.hand)) & c.mask
		c.hand = (c.hand + 1) % window
		e := &c.entries[j]
		if e.used {
			e.used = false
			continue
		}
		e.live = false
		c.stats.Evictions++
		return int(j)
	}
}

// Single returns SizeWith(alg, line) for the cache's algorithm,
// memoized by content.
func (c *SizeCache) Single(line []byte) int {
	mustLine(line)
	return c.lookup(hashLine(line), func() int { return SizeWith(c.alg, line) })
}

// Pair returns PairSizeWith(alg, a, b) for the cache's algorithm,
// memoized by the ordered content pair.
func (c *SizeCache) Pair(a, b []byte) int {
	mustLine(a)
	mustLine(b)
	return c.lookup(pairKey(hashLine(a), hashLine(b)), func() int { return PairSizeWith(c.alg, a, b) })
}
