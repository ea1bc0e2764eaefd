package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"dice/internal/data"
)

// sizeCorpus builds a line set spanning every synthetic data kind plus
// adversarial hand-built and uniformly random lines, so the size-only
// paths are checked across the whole compressibility spectrum.
func sizeCorpus(t testing.TB) [][]byte {
	t.Helper()
	var p data.Profile
	for k := data.Kind(0); k < data.KindCount; k++ {
		p.Weights[k] = 1
	}
	p.PageCoherence = 0.9
	s := data.NewSynth(0x5EED, p)
	var lines [][]byte
	for i := 0; i < 2048; i++ {
		l := make([]byte, LineSize)
		s.FillLine(uint64(i), l)
		lines = append(lines, l)
	}
	// Hand-built edges: all zero, single trailing byte, repeated word,
	// near-overflow deltas, incompressible noise.
	zero := make([]byte, LineSize)
	lines = append(lines, zero)
	one := make([]byte, LineSize)
	one[LineSize-1] = 1
	lines = append(lines, one)
	rep := make([]byte, LineSize)
	for i := 0; i < LineSize; i += 8 {
		copy(rep[i:], []byte{0xEF, 0xBE, 0xAD, 0xDE, 0xEF, 0xBE, 0xAD, 0xDE})
	}
	lines = append(lines, rep)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 512; i++ {
		l := make([]byte, LineSize)
		rng.Read(l)
		lines = append(lines, l)
	}
	return lines
}

// structuredLine builds a random line near the encoders' edges: k-byte
// values whose deltas from the first straddle a signed width (BDI), or
// words drawn from two FPC patterns with values at their boundaries, or
// noise with some zero words. One width bound per line puts values on
// and one past a boundary often enough that a fit check off by one
// changes a size.
func structuredLine(rng *rand.Rand) []byte {
	line := make([]byte, LineSize)
	b := []uint{2, 3, 7, 8, 15, 16, 31}[rng.Intn(7)]
	edge := func() int64 { return rng.Int63n(1<<(b+1)+2) - 1<<b - 1 } // in [-2^b-1, 2^b]
	switch rng.Intn(3) {
	case 0:
		k := []int{2, 4, 8}[rng.Intn(3)]
		base := rng.Uint64() >> uint(rng.Intn(64))
		writeUint(line, base, k)
		for i := k; i < LineSize; i += k {
			writeUint(line[i:], base+uint64(edge()), k)
		}
		if rng.Intn(8) == 0 { // every value equal, or one differs
			for i := 8; i < LineSize; i += 8 {
				copy(line[i:i+8], line[:8])
			}
			line[rng.Intn(LineSize)] ^= byte(rng.Intn(2))
		}
	case 1:
		pats := [2]int{rng.Intn(6), rng.Intn(6)}
		for i := 0; i < LineSize; i += 4 {
			var w uint32
			switch pats[rng.Intn(2)] {
			case 0:
				w = 0
			case 1:
				w = uint32(edge())
			case 2:
				w = uint32(edge()) << 16
			case 3:
				w = uint32(edge())&0xFFFF | uint32(edge())<<16
			case 4:
				w = uint32(rng.Intn(256)) * 0x01010101
			default:
				w = rng.Uint32()
			}
			binary.LittleEndian.PutUint32(line[i:], w)
		}
	default:
		rng.Read(line)
		for i := 0; i < LineSize; i += 4 {
			if rng.Intn(2) == 0 {
				binary.LittleEndian.PutUint32(line[i:], 0)
			}
		}
	}
	return line
}

// fpcCheapestBits maps every word a pattern of at most 16 payload bits
// decodes to (per fpcExpand, the decoder's half of the format) to the
// fewest payload bits that decode to it. Any other word needs the raw
// pattern's 32 bits.
func fpcCheapestBits() map[uint32]uint {
	cheapest := make(map[uint32]uint)
	for pat := uint8(0); pat < 8; pat++ {
		bits := fpcPayloadBits[pat]
		if bits > 16 {
			continue
		}
		for p := uint64(0); p < 1<<bits; p++ {
			w := fpcExpand(pat, p)
			if old, ok := cheapest[w]; !ok || bits < old {
				cheapest[w] = bits
			}
		}
	}
	return cheapest
}

// oracleLines is the line set the decoder-judged tests run over:
// sizeCorpus plus 100,000 structured random lines.
func oracleLines(t testing.TB) [][]byte {
	lines := sizeCorpus(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100_000; i++ {
		lines = append(lines, structuredLine(rng))
	}
	return lines
}

// lossless holds, for one line, the smallest payload the decoder turns
// back into it under each scheme alone, LineSize where the scheme
// cannot: zca is 0 only for the zero line, bdi comes with the mode
// that achieves it.
type lossless struct {
	zca, bdi, fpc int
	bdiMode       uint8
}

// smallestLossless is the oracle. It shares no fit check and no choice
// with sizeChoice: ZCA counts when the zero line's decode matches; BDI
// encodes with every mode and keeps the smallest that
// bdiDecompressChecked turns back into the line (the mode sizes are
// distinct, so the mode is unique); FPC prices each word at the
// cheapest pattern fpcExpand can decode it from (cheapest is
// fpcCheapestBits).
func smallestLossless(l []byte, cheapest map[uint32]uint) lossless {
	o := lossless{zca: LineSize, bdi: LineSize}
	if bytes.Equal(decoded(Encoding{Alg: AlgZCA, Sum: LineSum(l)}), l) {
		o.zca = 0
	}
	for mode := uint8(0); mode < bdiModeCount; mode++ {
		p := bdiEncode(l, mode)
		if out, err := bdiDecompressChecked(mode, p); err == nil && bytes.Equal(out, l) && len(p) < o.bdi {
			o.bdi, o.bdiMode = len(p), mode
		}
	}
	fpcBits := uint(0)
	for w := 0; w < LineSize; w += 4 {
		bits, ok := cheapest[binary.LittleEndian.Uint32(l[w:])]
		if !ok {
			bits = 32
		}
		fpcBits += 3 + bits
	}
	o.fpc = min(int(fpcBits+7)/8, LineSize)
	return o
}

// TestSizeIsSmallestLosslessEncoding judges the sizers by the decoder
// alone: for each compressor, SizeWith must equal the smallest payload
// that decodes back to the line (smallestLossless); raw is 64.
func TestSizeIsSmallestLosslessEncoding(t *testing.T) {
	cheapest := fpcCheapestBits()
	for i, l := range oracleLines(t) {
		o := smallestLossless(l, cheapest)
		want := map[AlgID]int{
			AlgNone: min(o.zca, o.bdi, o.fpc),
			AlgBDI:  min(o.zca, o.bdi),
			AlgFPC:  min(o.zca, o.fpc),
		}
		for alg, w := range want {
			if got := SizeWith(alg, l); got != w {
				t.Fatalf("line %d %x: SizeWith(%v) = %d, smallest lossless encoding is %d", i, l, alg, got, w)
			}
		}
	}
}

// TestSizeChoiceMatchesCompressBest pins each compressor's choice, not
// just its size: the algorithm and BDI mode, which pair base-sharing
// depends on. sizeChoice and the encoding Compress writes must both
// pick ZCA for the zero line, else the smallest lossless scheme the
// compressor may use, BDI winning a size tie with FPC, and raw when
// nothing beats 64 bytes; a BDI choice must use the smallest mode that
// decodes.
func TestSizeChoiceMatchesCompressBest(t *testing.T) {
	cheapest := fpcCheapestBits()
	for i, l := range oracleLines(t) {
		o := smallestLossless(l, cheapest)
		for _, alg := range []AlgID{AlgNone, AlgBDI, AlgFPC} {
			best, wantAlg := LineSize, AlgNone
			if alg != AlgFPC && o.bdi < best {
				best, wantAlg = o.bdi, AlgBDI
			}
			if alg != AlgBDI && o.fpc < best {
				best, wantAlg = o.fpc, AlgFPC
			}
			if o.zca == 0 {
				best, wantAlg = 0, AlgZCA
			}
			size, chosen, mode := sizeChoice(alg, l)
			enc := Compress(alg, l)
			if size != best || chosen != wantAlg || enc.Alg != wantAlg {
				t.Fatalf("%v line %d %x: sizeChoice=(%d,%v), Compress alg %v, want (%d,%v)", alg, i, l, size, chosen, enc.Alg, best, wantAlg)
			}
			if wantAlg == AlgBDI && (mode != o.bdiMode || enc.Mode != o.bdiMode) {
				t.Fatalf("%v line %d %x: sizeChoice mode %d, Compress mode %d, want %d", alg, i, l, mode, enc.Mode, o.bdiMode)
			}
		}
	}
}

// TestSizeOnlyMatchesCodec pins the allocation-free size paths to the
// encoder: every public size function must return exactly the payload
// size Compress writes, under every compressor.
func TestSizeOnlyMatchesCodec(t *testing.T) {
	for i, l := range sizeCorpus(t) {
		if got, want := CompressedSize(l), Compress(AlgNone, l).Size(); got != want {
			t.Fatalf("line %d: CompressedSize=%d, Compress(hybrid).Size()=%d", i, got, want)
		}
		for _, alg := range []AlgID{AlgNone, AlgBDI, AlgFPC} {
			if got, want := SizeWith(alg, l), Compress(alg, l).Size(); got != want {
				t.Fatalf("line %d: SizeWith(%v)=%d, Compress().Size()=%d", i, alg, got, want)
			}
		}
	}
}

// TestPairSizeOnlyMatchesCodec checks pair sizing, including the
// shared-base path, against CompressPair across adjacent corpus lines
// in both orders, under every compressor.
func TestPairSizeOnlyMatchesCodec(t *testing.T) {
	lines := sizeCorpus(t)
	for i := 0; i+1 < len(lines); i++ {
		a, b := lines[i], lines[i+1]
		if got, want := PairSize(a, b), CompressPair(AlgNone, a, b).Size(); got != want {
			t.Fatalf("pair %d: PairSize=%d, CompressPair(hybrid).Size()=%d", i, got, want)
		}
		for _, alg := range []AlgID{AlgNone, AlgBDI, AlgFPC} {
			if got, want := PairSizeWith(alg, a, b), CompressPair(alg, a, b).Size(); got != want {
				t.Fatalf("pair %d %v: PairSizeWith=%d, CompressPair().Size()=%d", i, alg, got, want)
			}
			if got, want := PairSizeWith(alg, b, a), CompressPair(alg, b, a).Size(); got != want {
				t.Fatalf("pair %d %v reversed: PairSizeWith=%d, CompressPair().Size()=%d", i, alg, got, want)
			}
		}
	}
}

// TestPairSizeWithMatchesReference judges the pair sizers by the
// decoder: b rides on a's BDI base exactly when the shared deltas
// decode back to b through DecompressPair and save bytes; otherwise the
// pair is the two lines apart. FPC and ZCA pairs never share.
func TestPairSizeWithMatchesReference(t *testing.T) {
	lines := oracleLines(t)
	for i := 1; i < len(lines); i++ {
		a, l := lines[i-1], lines[i]
		for _, alg := range []AlgID{AlgNone, AlgBDI, AlgFPC} {
			encA, sep := Compress(alg, a), SizeWith(alg, a)+SizeWith(alg, l)
			wantPair := sep
			if encA.Alg == AlgBDI && encA.Mode != BDIRep {
				k, _ := bdiGeometry(encA.Mode)
				p := PairEncoding{A: encA, B: Encoding{Alg: AlgBDIPair, Mode: encA.Mode,
					Payload: bdiDeltas(l, encA.Mode, int64(readUint(a[:k], k))), Sum: LineSum(l)}, SharedBase: true}
				if _, b, err := DecompressPair(p); err == nil && bytes.Equal(b, l) && p.Size() < sep {
					wantPair = p.Size()
				}
			}
			if got := PairSizeWith(alg, a, l); got != wantPair {
				t.Fatalf("pair %d: PairSizeWith(%v) = %d, smallest lossless pair is %d", i, alg, got, wantPair)
			}
		}
	}
}

// TestParseAlg pins the compressor vocabulary: the three names and the
// empty default, and a rejection naming the accepted set.
func TestParseAlg(t *testing.T) {
	for name, want := range map[string]AlgID{"": AlgNone, "hybrid": AlgNone, "fpc": AlgFPC, "bdi": AlgBDI} {
		if got, err := ParseAlg(name); err != nil || got != want {
			t.Fatalf("ParseAlg(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"lz4", "FPC", "none", "zca"} {
		if _, err := ParseAlg(bad); err == nil || !strings.Contains(err.Error(), "unknown compress") {
			t.Fatalf("ParseAlg(%q) err = %v, want unknown compress", bad, err)
		}
	}
}
