package dcache

import "sync"

// storage is the per-geometry memory a cache works in: one header per
// set, the entry chunks sets carve their slots from, and the size
// memo's pages. A sweep cell touches a few thousand of its 16384 sets,
// so building this afresh per simulation dominated the cell's
// allocation; instead New borrows a storage from a pool keyed by Sets
// and Release hands it back empty.
//
// touched names every set that carved slots. Only a set's first install
// carves them, and a flush or drop keeps them, so every set that holds
// slots or a line is on it exactly once, and Release empties exactly
// those: resetting costs O(sets touched), not O(Sets). The
// chunks stay allocated and carving restarts at the first one, so a
// storage holds the slots of the largest run it served, not of every
// set any run touched.
type storage struct {
	sets    []set
	touched []uint64
	// chunks are the entry chunks allocated so far; sets carve from
	// chunks[next-1], whose unused tail is chunk.
	chunks [][]entry
	next   int
	chunk  []entry
	// sizeMemo caches single/pair compressed sizes per line address; data
	// is deterministic per line within a run, so the memo never
	// invalidates until Release zeroes it.
	sizeMemo sizeMemo
}

// newStorage allocates empty storage for a cache of the given geometry.
func newStorage(sets int) *storage {
	return &storage{sets: make([]set, sets)}
}

// reset detaches every touched set from its slots, rewinds carving to
// the first chunk and zeroes the size memo, so the storage is
// indistinguishable from a fresh one to the next cache that borrows it.
// Entries hold no pointers, so reused slots need no clearing: a set
// only reads the entries it has appended.
func (s *storage) reset() {
	for _, i := range s.touched {
		s.sets[i].entries = nil
	}
	s.touched = s.touched[:0]
	s.next, s.chunk = 0, nil
	s.sizeMemo.reset()
}

// entryChunkSets is how many sets' first entryArenaCap slots one chunk
// allocation serves: large enough that a warm run allocates few chunks,
// small enough that a run touching a few sets pays little.
const entryChunkSets = 128

// carveEntries returns empty storage for a set's first install: the
// next entryArenaCap slots of the current chunk, capped so that growing
// past them reallocates instead of spilling into a neighbour's slots.
func (s *storage) carveEntries() []entry {
	if len(s.chunk) < entryArenaCap {
		if s.next == len(s.chunks) {
			s.chunks = append(s.chunks, make([]entry, entryChunkSets*entryArenaCap))
		}
		s.chunk = s.chunks[s.next]
		s.next++
	}
	e := s.chunk[:0:entryArenaCap]
	s.chunk = s.chunk[entryArenaCap:]
	return e
}

// storagePools hold released storages, one sync.Pool per Sets value: a
// storage fits only a cache of its own geometry. sim.Config.Validate
// bounds the scale shift and capacity multiplier that give Sets, so a
// simulator process meets at most 76 keys. Idle pooled storages are
// dropped by the garbage collector after two cycles, so the pools hold
// at most one storage per simulation of that geometry that ran at the
// same time.
var storagePools struct {
	sync.Mutex
	bySets map[int]*sync.Pool
}

// storagePool returns the pool for caches of the given geometry.
func storagePool(sets int) *sync.Pool {
	storagePools.Lock()
	defer storagePools.Unlock()
	p := storagePools.bySets[sets]
	if p == nil {
		if storagePools.bySets == nil {
			storagePools.bySets = make(map[int]*sync.Pool)
		}
		p = new(sync.Pool)
		storagePools.bySets[sets] = p
	}
	return p
}

// acquireStorage returns empty storage for a cache of the given
// geometry: one an earlier cache released, or a new one.
func acquireStorage(sets int) *storage {
	if s, ok := storagePool(sets).Get().(*storage); ok {
		return s
	}
	return newStorage(sets)
}
