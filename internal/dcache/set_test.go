package dcache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEntryIs16Bytes pins the entry layout: at 16 bytes the
// entryArenaCap slots a set carves fill one 64-byte host cache line.
// Reordering or widening a field silently doubles what set.find touches
// and what the storage pool holds.
func TestEntryIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Fatalf("entry is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(entry{}) * entryArenaCap; got != 64 {
		t.Fatalf("a carved set is %d bytes, want one 64-byte line", got)
	}
}

// fixedSizer assigns fixed single/pair sizes for codec-level tests.
type fixedSizer struct {
	single map[uint64]int
	pair   map[uint64]int // keyed by even line
}

func (f fixedSizer) singleSize(line uint64) int {
	if s, ok := f.single[line]; ok {
		return s
	}
	return 64
}

func (f fixedSizer) pairSize(evenLine uint64) int {
	if s, ok := f.pair[evenLine]; ok {
		return s
	}
	return f.singleSize(evenLine) + f.singleSize(evenLine|1)
}

func TestSetCodecSingleUncompressed(t *testing.T) {
	var s set
	sz := fixedSizer{single: map[uint64]int{}}
	s.entries = append(s.entries, entry{line: 10})
	s.repack(sz)
	// 4B tag + 64B data = 68 <= 72.
	if u := s.usage(); u != 68 {
		t.Fatalf("usage = %d, want 68", u)
	}
}

func TestSetCodecTwoSingles32B(t *testing.T) {
	// Fig 4: two <=32B singles with separate tags fit: 8 + 32 + 32 = 72.
	var s set
	sz := fixedSizer{single: map[uint64]int{100: 32, 200: 32}}
	s.entries = append(s.entries, entry{line: 100}, entry{line: 200})
	s.repack(sz)
	if u := s.usage(); u != 72 {
		t.Fatalf("usage = %d, want exactly 72", u)
	}
}

func TestSetCodecSharedTagPair(t *testing.T) {
	// Adjacent pair: one 4B tag + pair bytes. A 68B pair exactly fills
	// the set (Table 4 discussion).
	var s set
	sz := fixedSizer{
		single: map[uint64]int{40: 36, 41: 36},
		pair:   map[uint64]int{40: 68},
	}
	s.entries = append(s.entries, entry{line: 40}, entry{line: 41})
	s.repack(sz)
	if u := s.usage(); u != 72 {
		t.Fatalf("usage = %d, want 72 (4B tag + 68B pair)", u)
	}
	// The odd member must carry the shared-tag mark.
	i := s.find(41)
	if i < 0 || !s.entries[i].sharedTag {
		t.Fatal("odd buddy should share the even buddy's tag")
	}
	if j := s.find(40); j < 0 || s.entries[j].sharedTag {
		t.Fatal("even buddy holds the tag")
	}
}

func TestSetCodecPairSplitRevertsOnEviction(t *testing.T) {
	var s set
	sz := fixedSizer{
		single: map[uint64]int{40: 36, 41: 36},
		pair:   map[uint64]int{40: 60}, // strong base sharing
	}
	s.entries = append(s.entries, entry{line: 40}, entry{line: 41})
	s.repack(sz)
	if u := s.usage(); u != 64 { // 4 + 60
		t.Fatalf("paired usage = %d, want 64", u)
	}
	// Evict the even member: the odd survivor reverts to its single
	// encoding and needs its own tag.
	s.remove(s.find(40))
	s.repack(sz)
	if u := s.usage(); u != 40 { // 4 + 36
		t.Fatalf("survivor usage = %d, want 40", u)
	}
	if s.entries[0].sharedTag {
		t.Fatal("lone line cannot share a tag")
	}
}

func TestSetCodecManyZeroLines(t *testing.T) {
	// Zero lines cost only their tags; pairs share tags, so 28 lines
	// cost 14 tags = 56B <= 72. MaxLinesPerSet caps the count.
	var s set
	sz := fixedSizer{single: map[uint64]int{}, pair: map[uint64]int{}}
	for l := uint64(0); l < MaxLinesPerSet; l++ {
		sz.single[l] = 0
		if l%2 == 0 {
			sz.pair[l] = 0
		}
		s.entries = append(s.entries, entry{line: l})
	}
	s.repack(sz)
	if u := s.usage(); u != MaxLinesPerSet/2*TagBytes {
		t.Fatalf("usage = %d, want %d (14 shared tags)", u, MaxLinesPerSet/2*TagBytes)
	}
	if s.lineCount() != MaxLinesPerSet {
		t.Fatalf("lineCount = %d", s.lineCount())
	}
}

func TestSetLRUOrdering(t *testing.T) {
	var s set
	sz := fixedSizer{single: map[uint64]int{}}
	for l := uint64(1); l <= 4; l++ {
		s.entries = append([]entry{{line: l}}, s.entries...)
	}
	s.repack(sz)
	// MRU order is 4,3,2,1. Touch 2; evict LRU; 1 must go.
	s.touch(s.find(2))
	v, ok := s.evictLRU(-1)
	if !ok || v.line != 1 {
		t.Fatalf("evicted %+v, want line 1", v)
	}
	// keep=0 must protect the MRU entry.
	for s.lineCount() > 1 {
		if _, ok := s.evictLRU(0); !ok {
			break
		}
	}
	if s.lineCount() != 1 || s.entries[0].line != 2 {
		t.Fatalf("survivor = %+v, want line 2 (MRU-protected)", s.entries)
	}
}

func TestSetRemovePreservesOrder(t *testing.T) {
	var s set
	for l := uint64(1); l <= 5; l++ {
		s.entries = append(s.entries, entry{line: l})
	}
	s.remove(2) // line 3
	want := []uint64{1, 2, 4, 5}
	for i, w := range want {
		if s.entries[i].line != w {
			t.Fatalf("order broken at %d: %d", i, s.entries[i].line)
		}
	}
}

// Property: after any sequence of inserts and evictions with arbitrary
// sizes, usage never exceeds SetBytes once over-full sets are drained the
// way the cache drains them.
func TestQuickSetPackingNeverOverflows(t *testing.T) {
	f := func(ops []uint16) bool {
		var s set
		sz := fixedSizer{single: map[uint64]int{}, pair: map[uint64]int{}}
		for _, op := range ops {
			line := uint64(op % 512)
			size := int(op>>9) % 65
			sz.single[line] = size
			if s.find(line) < 0 {
				s.entries = append([]entry{{line: line}}, s.entries...)
			}
			s.repack(sz)
			for s.usage() > SetBytes || s.lineCount() > MaxLinesPerSet {
				if _, ok := s.evictLRU(0); !ok {
					return s.lineCount() == 1
				}
				s.repack(sz)
			}
			if s.usage() > SetBytes && s.lineCount() > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
