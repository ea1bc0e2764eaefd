package dcache

import (
	"runtime"
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
	c := New(Config{Sets: 16384, Policy: PolicyDICE, Mem: mem, Data: data})
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
