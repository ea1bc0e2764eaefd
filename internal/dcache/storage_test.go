package dcache

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dice/internal/dram"
)

// TestNewDefersSetStorage pins lazy set storage: building a
// default-scale DICE cache (16384 sets) allocates no per-set entry
// slots, so it stays under 1 MiB until the first install.
func TestNewDefersSetStorage(t *testing.T) {
	mem := dram.New(dram.HBMConfig())
	data := newTestData()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(Config{Sets: 16384, Policy: PolicyDICE, Mem: mem, Sizes: data})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("New allocated %d bytes before any install, want < 1 MiB", got)
	}
}

// TestCarvedSetsDoNotShareSlots grows a set past the entryArenaCap slots
// it carved and checks that the set carved next to it keeps its line:
// growth must reallocate, never spill into a neighbour's slots.
func TestCarvedSetsDoNotShareSlots(t *testing.T) {
	c := newCache(PolicyTSI, 64, newTestData())
	c.Install(0, 0, false) // set 0 carves the first slots of a chunk
	c.Install(0, 1, true)  // set 1 carves the next ones
	for l := uint64(64); l <= 64*(entryArenaCap+1); l += 64 {
		c.Install(0, l, false) // zero lines: set 0 grows past its slots
	}
	if n := c.sets[0].lineCount(); n <= entryArenaCap {
		t.Fatalf("set 0 holds %d lines, want more than %d", n, entryArenaCap)
	}
	s1 := &c.sets[1]
	if s1.lineCount() != 1 || s1.entries[0].line != 1 || !s1.entries[0].dirty {
		t.Fatalf("set 1 = %+v, want only dirty line 1", s1.entries)
	}
}

// TestRecycledStorageMatchesFresh proves a cache on recycled set
// storage behaves exactly as one on fresh storage. A fault-injected
// DICE cache on KNL under ecc+quarantine runs a stream that empties
// sets every way a set can be emptied (flushes, checksum drops,
// alternate-location drops) and gives its storage up the way Release
// does. A cache of another policy is then built on that storage while
// a twin runs the same stream on fresh storage, and the two must agree
// on contents, statistics and occupancy after every operation. Each
// recycled cache gives the storage up in turn, dirty, to the next
// policy. The storage passes from cache to cache through detachStorage
// and newOn, not through the pool, which may drop what it is given.
func TestRecycledStorageMatchesFresh(t *testing.T) {
	d := newOccupancyStream(t, New, PolicyDICE, OrgKNL, 3, 5)
	for op := 0; op < 20000; op++ {
		d.step(t, op)
	}
	if p := d.paths; p.flushedLines == 0 || p.checksumDrops == 0 || p.dupDrops == 0 {
		t.Fatalf("the dirtying stream did not empty sets every way: %+v", p)
	}
	for i, policy := range []Policy{PolicyBAI, PolicySCC, PolicyDICE} {
		prev := d.c.cfg.Policy
		home := d.c.detachStorage()
		d.c.Release()
		if r := home.residue(); r != "" {
			t.Fatalf("storage released by the %v cache: %s", prev, r)
		}
		chunks := len(home.chunks)
		if chunks == 0 {
			t.Fatalf("storage released by the %v cache kept no entry chunks", prev)
		}

		seed := uint64(10 + i)
		onHome := func(cfg Config) *Cache { return newOn(cfg, home) }
		rec := newOccupancyStream(t, onHome, policy, OrgAlloy, seed, seed)
		fresh := newOccupancyStream(t, newFresh, policy, OrgAlloy, seed, seed)
		for op := 0; op < 5000; op++ {
			rec.step(t, op)
			fresh.step(t, op)
			r, f := rec.c, fresh.c
			if r.Fingerprint() != f.Fingerprint() || r.Stats() != f.Stats() ||
				r.OccupiedLines() != f.OccupiedLines() || r.scanOccupiedLines() != f.scanOccupiedLines() {
				t.Fatalf("%v op %d: cache on recycled storage (%d chunks) diverged from fresh:\nrecycled %+v, %d lines\nfresh    %+v, %d lines",
					policy, op, chunks, r.Stats(), r.OccupiedLines(), f.Stats(), f.OccupiedLines())
			}
		}
		fresh.c.Release()
		d = rec
	}
	d.c.Release()
}

// TestRecycledChunksServeAnyRun checks that a storage keeps only the
// entry chunks one run needs: two runs on one recycled storage that
// install into disjoint sets carve from the same chunks, so the second
// run allocates none.
func TestRecycledChunksServeAnyRun(t *testing.T) {
	const sets, lines = 1024, 2 * entryChunkSets
	home := newStorage(sets)
	for run, first := range []uint64{0, sets / 2} {
		c := newOn(Config{Sets: sets, Policy: PolicyTSI, Mem: dram.New(dram.HBMConfig()), Sizes: newTestData()}, home)
		for l := first; l < first+lines; l++ {
			c.Install(0, l, false)
		}
		if c.detachStorage() != home {
			t.Fatalf("run %d: the cache gave up storage it was not built on", run)
		}
		c.Release()
		if got := len(home.chunks); got != lines/entryChunkSets {
			t.Fatalf("after run %d: storage holds %d chunks, want %d", run, got, lines/entryChunkSets)
		}
	}
}

// TestUseAfterReleasePanics checks that a released cache cannot reach
// the storage it gave back: Read, Install and Writeback panic, and the
// storage is still empty afterwards.
func TestUseAfterReleasePanics(t *testing.T) {
	for _, op := range []struct {
		name string
		use  func(c *Cache)
	}{
		{"Read", func(c *Cache) { c.Read(0, 3) }},
		{"Install", func(c *Cache) { c.Install(0, 3, true) }},
		{"Writeback", func(c *Cache) { c.Writeback(0, 3) }},
	} {
		t.Run(op.name, func(t *testing.T) {
			old := newCache(PolicyDICE, 64, newTestData())
			old.Install(0, 3, false)
			home := old.detachStorage()
			old.Release()
			func() {
				defer func() {
					if r := recover(); !strings.Contains(fmt.Sprint(r), "used after Release") {
						t.Errorf("%s after Release: recovered %v, want a used-after-Release panic", op.name, r)
					}
				}()
				op.use(old)
			}()
			if r := home.residue(); r != "" {
				t.Fatalf("storage given back before %s on the released cache: %s", op.name, r)
			}
		})
	}
}
