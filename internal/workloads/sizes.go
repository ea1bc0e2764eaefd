package workloads

import (
	"sync/atomic"
	"unsafe"

	"dice/internal/compress"
)

// A line's compressed size is a function of its bytes and the
// compressor alone, and its bytes are a function of the artifact, the
// core and the virtual line alone. So every simulation of one artifact
// sizes a line to the same value, and the artifact keeps one table of
// the sizes any run has computed: a sizeTable per SPEC core (each core
// has its own data seed) and one per builtGAP (every core of a GAP
// workload reads the same graph image).
//
// Concurrent runs of one artifact fill a table with atomics only: a
// page, a directory and each size is published by compare-and-swap,
// a size only into a field still zero. Two runs that race on one
// field compute the same value, so whichever store lands first, every
// reader sees the one size the compressor gives; fill order cannot
// change a result.
//
// Memory follows the lines actually sized: a table is one pointer
// until its first size, then a compressor's first size allocates that
// compressor's directory, one pointer per 64-line page of the
// footprint, and each page holding a sized line costs 2 bytes per line.
// The table lives and dies with its artifact, so DropCache drops it.

const (
	// sizePageShift gives 64 lines (one simulated 4KB page) per page.
	sizePageShift = 6
	sizePageLines = 1 << sizePageShift

	// Fields of a pair word, each a size biased by one so zero means
	// "not sized yet": the even line's single size, the odd line's, and
	// the pair's packed size (0..128).
	evenField = 0
	oddField  = 8
	pairField = 16
)

// sizeTable is one artifact's shared size table. The zero value is
// ready to use; it stays one pointer wide so building an artifact
// allocates nothing more for it.
type sizeTable struct {
	dirs atomic.Pointer[sizeDirs]
}

// sizeDirs holds one directory per compressor, indexed by
// compress.AlgID (hybrid is AlgNone; the AlgZCA slot stays empty).
type sizeDirs [compress.AlgBDI + 1]atomic.Pointer[sizeDir]

// sizeDir holds one compressor's pages, one slot per page of the
// footprint, each nil until a line in it is sized.
type sizeDir struct {
	pages []atomic.Pointer[sizePage]
}

// sizePage holds the sizes of one page's lines: one word per
// even-aligned pair of lines, so 2 bytes per line.
type sizePage [sizePageLines / 2]atomic.Uint32

var (
	// tableSized counts sizes computed and stored by every table;
	// tableBytes counts the bytes their directories and pages hold.
	// DropCache zeroes both with the tables it drops.
	tableSized atomic.Uint64
	tableBytes atomic.Uint64
)

// SizeTableStats returns the artifact size tables' counters since the
// last DropCache: the single and pair sizes computed and stored, and
// the bytes the tables hold. A run that only repeats an earlier run of
// the same artifact sizes nothing new. See METRICS.md.
func SizeTableStats() (sized, bytes uint64) {
	return tableSized.Load(), tableBytes.Load()
}

// word returns the word holding line's sizes under alg in a table
// covering lines virtual lines, materializing the directory and page
// on first use, or nil for a line past the last page.
func (t *sizeTable) word(alg compress.AlgID, line, lines uint64) *atomic.Uint32 {
	dirs := t.dirs.Load()
	if dirs == nil {
		dirs = publish(&t.dirs, new(sizeDirs), unsafe.Sizeof(sizeDirs{}))
	}
	d := dirs[alg].Load()
	if d == nil {
		n := (lines + sizePageLines - 1) >> sizePageShift
		d = publish(&dirs[alg], &sizeDir{pages: make([]atomic.Pointer[sizePage], n)},
			uintptr(n)*unsafe.Sizeof(atomic.Pointer[sizePage]{}))
	}
	page := line >> sizePageShift
	if page >= uint64(len(d.pages)) {
		return nil
	}
	p := d.pages[page].Load()
	if p == nil {
		p = publish(&d.pages[page], new(sizePage), unsafe.Sizeof(sizePage{}))
	}
	return &p[line&(sizePageLines-1)>>1]
}

// publish stores v, of bytes bytes, into the empty slot *slot and
// counts it, unless a concurrent caller filled the slot first: then v
// is dropped and the stored value returned.
func publish[T any](slot *atomic.Pointer[T], v *T, bytes uintptr) *T {
	if slot.CompareAndSwap(nil, v) {
		tableBytes.Add(uint64(bytes))
		return v
	}
	return slot.Load()
}

// size returns the field of w at shift, computing it with compute and
// storing it on first use. A nil w (a line the table does not cover)
// computes every time.
func size(w *atomic.Uint32, shift uint, compute func() int) int {
	if w == nil {
		return compute()
	}
	if v := w.Load() >> shift & 0xFF; v != 0 {
		return int(v) - 1
	}
	sz := compute()
	for {
		old := w.Load()
		if old>>shift&0xFF != 0 {
			return sz // a concurrent run stored the same size first
		}
		if w.CompareAndSwap(old, old|uint32(sz+1)<<shift) {
			tableSized.Add(1)
			return sz
		}
	}
}

// Size returns the compressed size in bytes (0..64) of virtual line
// under alg (compress.AlgFPC, compress.AlgBDI, or the zero AlgID for
// hybrid): compress.SizeWith over the bytes Fill writes. The first call
// for a line computes it, and every later call, in any simulation of
// the same artifact, reads the artifact's table.
func (in *Instance) Size(alg compress.AlgID, line uint64) int {
	shift := uint(evenField)
	if line&1 == 1 {
		shift = oddField
	}
	return size(in.sizes.word(alg, line, in.FootprintLines), shift, func() int {
		buf := in.buffers()
		in.Fill(line, buf[0][:])
		return compress.SizeWith(alg, buf[0][:])
	})
}

// PairSize returns the compressed size in bytes (0..128) of the
// even-aligned pair evenLine, evenLine|1 packed together under alg:
// compress.PairSizeWith over their bytes, read from the artifact's
// table like Size. The odd line need not lie inside FootprintLines.
func (in *Instance) PairSize(alg compress.AlgID, evenLine uint64) int {
	return size(in.sizes.word(alg, evenLine, in.FootprintLines), pairField, func() int {
		buf := in.buffers()
		in.Fill(evenLine, buf[0][:])
		in.Fill(evenLine|1, buf[1][:])
		return compress.PairSizeWith(alg, buf[0][:], buf[1][:])
	})
}

// buffers returns the instance's scratch lines, allocated on the first
// size its table lacks, so runs on a warm table allocate none.
func (in *Instance) buffers() *[2][compress.LineSize]byte {
	if in.scratch == nil {
		in.scratch = new([2][compress.LineSize]byte)
	}
	return in.scratch
}
