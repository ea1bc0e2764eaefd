package dcache

import (
	"runtime"
	"testing"

	"dice/internal/compress"
	"dice/internal/data"
	"dice/internal/dram"
)

// synthLine returns a fresh copy of line's bytes from s, the direct
// reference the memoized sizes are checked against.
func synthLine(s *data.Synth, line uint64) []byte {
	buf := make([]byte, compress.LineSize)
	s.FillLine(line, buf)
	return buf
}

func memoTestCache(t *testing.T, src Sizer, cfg Config) *Cache {
	t.Helper()
	cfg.Sets = 1 << 8
	cfg.Mem = dram.New(dram.HBMConfig())
	cfg.Sizes = src
	return New(cfg)
}

// TestSizeMemoMatchesDirect pins the memoized size path to the direct
// compressor result for every line, across repeated lookups (the
// second pass must be all hits).
func TestSizeMemoMatchesDirect(t *testing.T) {
	synth := data.NewSynth(0xABCD, data.HighlyCompressible())
	c := memoTestCache(t, &synthSource{s: synth}, Config{Policy: PolicyDICE})
	for pass := 0; pass < 2; pass++ {
		for line := uint64(0); line < 512; line++ {
			want := compress.CompressedSize(synthLine(synth, line))
			if got := c.singleSize(line); got != want {
				t.Fatalf("pass %d line %d: singleSize=%d, direct=%d", pass, line, got, want)
			}
			if line%2 == 0 {
				wantPair := compress.PairSize(synthLine(synth, line), synthLine(synth, line|1))
				wantPair = (wantPair + 1) &^ 1 // memo rounds odd pair sizes up to even
				if got := c.pairSize(line); got != wantPair {
					t.Fatalf("pass %d line %d: pairSize=%d, direct=%d", pass, line, got, wantPair)
				}
			}
		}
	}
	st := c.Stats()
	if st.SizeMemoMisses != 512+256 {
		t.Fatalf("SizeMemoMisses=%d, want %d (one per distinct single + pair)", st.SizeMemoMisses, 512+256)
	}
	if st.SizeMemoHits != 512+256 {
		t.Fatalf("SizeMemoHits=%d, want %d (the whole second pass)", st.SizeMemoHits, 512+256)
	}
}

// TestSizeMemoMatchesDirectPerAlgorithm covers the ablation compressors:
// the memoized sizes under Alg FPC and Alg BDI must match direct
// SizeWith/PairSizeWith calls.
func TestSizeMemoMatchesDirectPerAlgorithm(t *testing.T) {
	for _, alg := range []compress.AlgID{compress.AlgFPC, compress.AlgBDI} {
		synth := data.NewSynth(0x600D, data.HighlyCompressible())
		c := memoTestCache(t, &synthSource{s: synth}, Config{Policy: PolicyDICE, Alg: alg})
		for line := uint64(0); line < 256; line++ {
			if got, want := c.singleSize(line), compress.SizeWith(alg, synthLine(synth, line)); got != want {
				t.Fatalf("alg %v line %d: singleSize=%d, direct=%d", alg, line, got, want)
			}
			if line%2 == 0 {
				want := (compress.PairSizeWith(alg, synthLine(synth, line), synthLine(synth, line|1)) + 1) &^ 1
				if got := c.pairSize(line); got != want {
					t.Fatalf("alg %v line %d: pairSize=%d, direct=%d", alg, line, got, want)
				}
			}
		}
	}
}

// TestSizeMemoSparseAddresses exercises the overflow level of the
// two-level memo table: line addresses far beyond the dense page range
// must memoize correctly too.
func TestSizeMemoSparseAddresses(t *testing.T) {
	synth := data.NewSynth(0xFEED, data.HighlyCompressible())
	c := memoTestCache(t, &synthSource{s: synth}, Config{Policy: PolicyDICE})
	sparse := []uint64{
		memoMaxDensePages << memoLineShift,
		(memoMaxDensePages << memoLineShift) * 7,
		1 << 40, 1<<40 | 1, 1 << 62,
	}
	for pass := 0; pass < 2; pass++ {
		for _, line := range sparse {
			if got, want := c.singleSize(line), compress.CompressedSize(synthLine(synth, line)); got != want {
				t.Fatalf("pass %d sparse line %#x: singleSize=%d, direct=%d", pass, line, got, want)
			}
		}
	}
	if st := c.Stats(); st.SizeMemoHits != uint64(len(sparse)) {
		t.Fatalf("SizeMemoHits=%d, want %d (overflow cells must memoize)", st.SizeMemoHits, len(sparse))
	}
}

// nilOddSource serves real data for even lines but reports odd lines
// unknown, modelling a pair whose second member falls outside the data
// image at an end-of-set boundary.
type nilOddSource struct{ s *data.Synth }

func (n *nilOddSource) FillLine(line uint64, buf []byte) bool {
	if line&1 == 1 {
		return false
	}
	n.s.FillLine(line, buf)
	return true
}

func (n *nilOddSource) Size(alg compress.AlgID, line uint64) int {
	return fillSize(n.FillLine, alg, line)
}

func (n *nilOddSource) PairSize(alg compress.AlgID, evenLine uint64) int {
	return fillPairSize(n.FillLine, alg, evenLine)
}

// TestPairSizeNilOddBoundary pins the end-of-set boundary behavior: a
// pair whose odd member has no data is incompressible (128B, i.e.
// 2*LineSize), the odd member alone sizes as an incompressible 64B
// line, and the even member still sizes alone from its data.
func TestPairSizeNilOddBoundary(t *testing.T) {
	synth := data.NewSynth(0xB00, data.HighlyCompressible())
	c := memoTestCache(t, &nilOddSource{s: synth}, Config{Policy: PolicyDICE})
	for line := uint64(0); line < 64; line += 2 {
		if got := c.pairSize(line); got != 128 {
			t.Fatalf("line %d: pairSize with nil odd member = %d, want 128", line, got)
		}
		if got, want := c.singleSize(line), compress.CompressedSize(synthLine(synth, line)); got != want {
			t.Fatalf("line %d: even member singleSize=%d, want %d", line, got, want)
		}
		if got := c.singleSize(line | 1); got != 64 {
			t.Fatalf("line %d: nil odd member singleSize=%d, want 64", line|1, got)
		}
	}
}

// TestPairSizeOddRoundsUp pins the memo's storage quirk: odd pair sizes
// round up to the next even byte count — the memo packs pair sizes /2
// into a byte — and the rounded value is what every caller observes,
// first computation included. Odd sizes arise on the default hybrid
// path: FPC sizes are (bits+7)/8, so 7 of the first 10,000 pairs of the
// mixed corpus size odd.
func TestPairSizeOddRoundsUp(t *testing.T) {
	// A real odd hybrid pair: lines 1196/1197 of the mixed corpus.
	const even = 1196
	mixed := mixedSynth()
	if got := compress.PairSize(synthLine(mixed, even), synthLine(mixed, even|1)); got != 39 {
		t.Fatalf("hybrid PairSize(%d)=%d, want the odd 39 this case exercises", even, got)
	}
	hybrid := memoTestCache(t, &synthSource{s: mixed}, Config{Policy: PolicyDICE})
	for pass := 0; pass < 2; pass++ {
		if got := hybrid.pairSize(even); got != 40 {
			t.Fatalf("pass %d: hybrid pairSize(%d)=%d, want 40 (39 rounded up)", pass, even, got)
		}
	}
}

// TestReleaseIdempotent checks a second Cache.Release puts nothing in
// the pool: a double put would let the next two acquirers share one
// set storage. Two collections first empty the pool.
func TestReleaseIdempotent(t *testing.T) {
	runtime.GC()
	runtime.GC()
	c := memoTestCache(t, &synthSource{s: mixedSynth()}, Config{Policy: PolicyDICE})
	c.Release()
	c.Release()
	if c.storage != nil {
		t.Fatal("Release left the set storage attached")
	}
	x := memoTestCache(t, &synthSource{s: mixedSynth()}, Config{Policy: PolicyDICE})
	y := memoTestCache(t, &synthSource{s: mixedSynth()}, Config{Policy: PolicyDICE})
	if x.storage == y.storage {
		t.Fatal("two caches of one geometry got the same set storage after a double Release")
	}
}
