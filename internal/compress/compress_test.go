package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func lineOf(b byte) []byte {
	line := make([]byte, LineSize)
	for i := range line {
		line[i] = b
	}
	return line
}

func lineFromWords(words ...uint32) []byte {
	line := make([]byte, LineSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], words[i%len(words)])
	}
	return line
}

func lineFromQwords(qs ...uint64) []byte {
	line := make([]byte, LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], qs[i%len(qs)])
	}
	return line
}

func randomLine(rng *rand.Rand) []byte {
	line := make([]byte, LineSize)
	for i := range line {
		line[i] = byte(rng.Uint32())
	}
	return line
}

// compressors are the three compressors Compress and the sizers accept.
var compressors = []AlgID{AlgNone, AlgFPC, AlgBDI}

// decoded is DecompressChecked's line, or nil when it rejects enc.
func decoded(enc Encoding) []byte {
	out, err := DecompressChecked(enc)
	if err != nil {
		return nil
	}
	return out
}

// TestZCACompressesOnlyZeroLines: every compressor encodes an all-zero
// line as a payload-free ZCA encoding that round-trips, and no other
// line as ZCA.
func TestZCACompressesOnlyZeroLines(t *testing.T) {
	for _, alg := range compressors {
		enc := Compress(alg, make([]byte, LineSize))
		if enc.Alg != AlgZCA || enc.Size() != 0 {
			t.Fatalf("%v zero line: alg %v, payload size %d; want zca, 0", alg, enc.Alg, enc.Size())
		}
		if got := decoded(enc); !bytes.Equal(got, make([]byte, LineSize)) {
			t.Fatalf("%v: ZCA round trip failed", alg)
		}
		if enc := Compress(alg, lineOf(1)); enc.Alg == AlgZCA {
			t.Fatalf("%v: a non-zero line was encoded as ZCA", alg)
		}
	}
}

// checkConforms requires line to size to exactly size under alg through
// both SizeWith and Compress, to encode with alg itself in mode, and to
// round-trip.
func checkConforms(t *testing.T, alg AlgID, line []byte, mode uint8, size int) {
	t.Helper()
	if got := SizeWith(alg, line); got != size {
		t.Fatalf("SizeWith = %d, want %d", got, size)
	}
	enc := Compress(alg, line)
	if enc.Alg != alg || enc.Mode != mode || enc.Size() != size {
		t.Fatalf("Compress = %v mode %d, %dB; want %v mode %d, %dB", enc.Alg, enc.Mode, enc.Size(), alg, mode, size)
	}
	if got := decoded(enc); !bytes.Equal(got, line) {
		t.Fatalf("round trip failed: got %x want %x", got, line)
	}
}

// TestFPCKnownPatterns is FPC's conformance table: one row per word
// pattern, each at its exact published size, 16 words x (3-bit prefix +
// payload) rounded up to bytes.
func TestFPCKnownPatterns(t *testing.T) {
	tests := []struct {
		name string
		line []byte
		size int
	}{
		{"zero words", lineFromWords(0, 0, 0, 1), 8},              // 12*3 + 4*7 bits (not all zero: that is ZCA)
		{"small 4-bit ints", lineFromWords(3, 7, 0xFFFFFFFF), 14}, // 16*7 bits
		{"8-bit ints", lineFromWords(100, 0xFFFFFF85), 22},        // 16*11 bits
		{"16-bit ints", lineFromWords(30000, 0xFFFF8000), 38},     // 16*19 bits
		{"half zero", lineFromWords(0x12340000, 0xFFFF0000), 38},  // 16*19 bits
		{"halfwords", lineFromWords(0x00050003), 38},              // 16*19 bits
		{"repeated bytes", lineFromWords(0xABABABAB), 22},         // 16*11 bits
		{"raw words", lineFromWords(0x12345678, 0), 38},           // 8*35 + 8*3 bits
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkConforms(t, AlgFPC, tc.line, 0, tc.size)
		})
	}
}

func TestFPCRejectsRandomLine(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	rejected := 0
	for i := 0; i < 100; i++ {
		line := randomLine(rng)
		enc := Compress(AlgFPC, line)
		if enc.Alg == AlgFPC && enc.Size() >= LineSize {
			t.Fatal("FPC encoding not smaller than line")
		}
		if got := decoded(enc); !bytes.Equal(got, line) {
			t.Fatal("round trip failed")
		}
		if enc.Alg == AlgNone {
			rejected++
		}
	}
	if rejected < 90 {
		t.Fatalf("only %d/100 random lines rejected; FPC should not compress noise", rejected)
	}
}

// TestBDIModesAndSizes is BDI's conformance table: one row per mode at
// its published size.
func TestBDIModesAndSizes(t *testing.T) {
	tests := []struct {
		name string
		line []byte
		mode uint8
		size int
	}{
		{"repeated qword", lineFromQwords(0xDEADBEEFCAFEBABE), BDIRep, 8},
		{"b8d1", lineFromQwords(1<<40, 1<<40+100, 1<<40+7), BDIB8D1, 16},
		{"b4d1 pointers", lineFromWords(0x10000000, 0x10000004, 0x10000010), BDIB4D1, 20},
		{"b8d2", lineFromQwords(1<<40, 1<<40+1000, 1<<40+30000), BDIB8D2, 24},
		{"b2d1", lineFromWords(0x10201000, 0x10401030, 0x10101050), BDIB2D1, 34},
		{"b4d2", lineFromWords(0x10000000, 0x10004000, 0x10007FFF), BDIB4D2, 36},
		{"b8d4", lineFromQwords(1<<40, 1<<40+1<<30, 1<<40+12345678), BDIB8D4, 40},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkConforms(t, AlgBDI, tc.line, tc.mode, tc.size)
		})
	}
}

func TestBDIMixedZeroPointerLineRejected(t *testing.T) {
	// Half the values near a large base, half near zero. Full B∆I's
	// zero-immediate second base would catch this; our single-base
	// variant (canonical sizes) deliberately rejects it, and the hybrid
	// must still round-trip the line via the raw fallback.
	line := lineFromQwords(0xDEADBEEF12345678, 3, 0xDEADBEEF87654321, 7)
	if enc := Compress(AlgBDI, line); enc.Alg != AlgNone {
		t.Fatalf("single-base BDI should reject mixed zero/pointer line, got %v", enc.Alg)
	}
	enc := Compress(AlgNone, line)
	if got := decoded(enc); !bytes.Equal(got, line) {
		t.Fatal("hybrid round trip failed")
	}
}

func TestBDIRejectsRandomLine(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	rejected := 0
	for i := 0; i < 100; i++ {
		if Compress(AlgBDI, randomLine(rng)).Alg == AlgNone {
			rejected++
		}
	}
	if rejected < 95 {
		t.Fatalf("only %d/100 random lines rejected", rejected)
	}
}

// TestCompressBestPicksSmallest: the hybrid, Compress(AlgNone, ...),
// keeps whichever of ZCA, FPC, BDI and raw is smallest.
func TestCompressBestPicksSmallest(t *testing.T) {
	// A zero line must be ZCA with size 0.
	if enc := Compress(AlgNone, make([]byte, LineSize)); enc.Alg != AlgZCA || enc.Size() != 0 {
		t.Fatalf("zero line: got %v size %d", enc.Alg, enc.Size())
	}
	// Small 4-bit integers: FPC (14B) beats BDI b4d1 (22B) and b2d1.
	line := lineFromWords(1, 2, 3)
	enc := Compress(AlgNone, line)
	if enc.Alg != AlgFPC {
		t.Fatalf("small ints: alg = %v, want fpc", enc.Alg)
	}
	// Large-base pointers: BDI wins, FPC cannot compress them.
	ptr := lineFromQwords(0x7FFE00112200, 0x7FFE00112208, 0x7FFE00112240)
	enc = Compress(AlgNone, ptr)
	if enc.Alg != AlgBDI {
		t.Fatalf("pointers: alg = %v, want bdi", enc.Alg)
	}
	// Random data: stored uncompressed.
	rng := rand.New(rand.NewPCG(5, 6))
	var sawNone bool
	for i := 0; i < 20; i++ {
		if Compress(AlgNone, randomLine(rng)).Alg == AlgNone {
			sawNone = true
		}
	}
	if !sawNone {
		t.Fatal("random lines should mostly be incompressible")
	}
}

func TestDecompressAllAlgs(t *testing.T) {
	lines := [][]byte{
		make([]byte, LineSize),
		lineFromWords(5, 6),
		lineFromQwords(1<<45, 1<<45+3),
		lineOf(0xA5),
	}
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 50; i++ {
		lines = append(lines, randomLine(rng))
	}
	for _, alg := range compressors {
		for _, line := range lines {
			enc := Compress(alg, line)
			if got := decoded(enc); !bytes.Equal(got, line) {
				t.Fatalf("%v: round trip failed for alg %v", alg, enc.Alg)
			}
		}
	}
}

// roundTrips reports whether Compress(alg, line) decodes back to line at
// exactly SizeWith(alg, line) payload bytes.
func roundTrips(alg AlgID, line []byte) bool {
	enc := Compress(alg, line)
	return enc.Size() == SizeWith(alg, line) && bytes.Equal(decoded(enc), line)
}

// Property: hybrid compression round-trips arbitrary lines at exactly
// the size the sizer reports, never above the line size.
func TestQuickHybridRoundTrip(t *testing.T) {
	f := func(seed uint64, structured bool) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9E3779B9))
		var line []byte
		if structured {
			// Generate BDI-friendly structured data to exercise the
			// compressible paths, not just the AlgNone fallback.
			base := rng.Uint64() >> (rng.UintN(40) + 8)
			qs := make([]uint64, 8)
			for i := range qs {
				qs[i] = base + uint64(rng.UintN(200))
			}
			line = lineFromQwords(qs...)
		} else {
			line = randomLine(rng)
		}
		return SizeWith(AlgNone, line) <= LineSize && roundTrips(AlgNone, line)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: FPC-only compression round-trips any line at its size.
func TestQuickFPCRoundTrip(t *testing.T) {
	f := func(words [16]uint32) bool {
		line := make([]byte, LineSize)
		for i, w := range words {
			binary.LittleEndian.PutUint32(line[i*4:], w)
		}
		return roundTrips(AlgFPC, line)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: BDI-only compression round-trips any line at its size.
func TestQuickBDIRoundTrip(t *testing.T) {
	f := func(qs [8]uint64, narrow uint8) bool {
		line := make([]byte, LineSize)
		mask := uint64(1)<<((narrow%56)+8) - 1
		for i, q := range qs {
			binary.LittleEndian.PutUint64(line[i*8:], q&mask|qs[0]&^mask)
		}
		return roundTrips(AlgBDI, line)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPairSharedBaseSavesBaseBytes(t *testing.T) {
	// Two adjacent lines of values near the same large base: shared base
	// should save the base bytes of the second line.
	a := lineFromQwords(1<<50, 1<<50+4, 1<<50+9)
	b := lineFromQwords(1<<50+100, 1<<50+104, 1<<50+90)
	p := CompressPair(AlgNone, a, b)
	if !p.SharedBase {
		t.Fatal("expected shared-base pair")
	}
	encA, encB := Compress(AlgBDI, a), Compress(AlgBDI, b)
	if p.Size() >= encA.Size()+encB.Size() {
		t.Fatalf("pair size %d not smaller than separate %d",
			p.Size(), encA.Size()+encB.Size())
	}
	gotA, gotB, err := DecompressPair(p)
	if err != nil || !bytes.Equal(gotA, a) || !bytes.Equal(gotB, b) {
		t.Fatalf("pair round trip failed (err %v)", err)
	}
}

func TestPairFallsBackToSeparate(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	a := randomLine(rng)
	b := lineFromWords(1, 2)
	p := CompressPair(AlgNone, a, b)
	if p.SharedBase {
		t.Fatal("random + fpc lines should not share a base")
	}
	gotA, gotB, err := DecompressPair(p)
	if err != nil || !bytes.Equal(gotA, a) || !bytes.Equal(gotB, b) {
		t.Fatalf("pair round trip failed (err %v)", err)
	}
}

// Property: pairs round-trip under every compressor at exactly their
// pair size, never above 128 bytes.
func TestQuickPairRoundTrip(t *testing.T) {
	f := func(seed uint64, kind, alg uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		mk := func() []byte {
			switch kind % 3 {
			case 0:
				return randomLine(rng)
			case 1:
				base := rng.Uint64() >> 16
				return lineFromQwords(base, base+uint64(rng.UintN(100)))
			default:
				return lineFromWords(uint32(rng.UintN(16)))
			}
		}
		a, b := mk(), mk()
		id := compressors[alg%3]
		p := CompressPair(id, a, b)
		gotA, gotB, err := DecompressPair(p)
		return err == nil && p.Size() == PairSizeWith(id, a, b) && p.Size() <= 2*LineSize &&
			bytes.Equal(gotA, a) && bytes.Equal(gotB, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperThresholds(t *testing.T) {
	// The paper's DICE threshold story: BDI b4d2 compresses a single line
	// to 36B, and with shared tag+base two such lines fit in 68B.
	line := lineFromWords(0x10000000, 0x10004000, 0x10002345)
	if enc := Compress(AlgBDI, line); enc.Alg != AlgBDI || enc.Size() != 36 {
		t.Fatalf("b4d2 line: %v, %dB; want bdi, 36B", enc.Alg, enc.Size())
	}
	next := lineFromWords(0x10001000, 0x10005000, 0x10003345)
	if ps := PairSize(line, next); ps > 68 {
		t.Fatalf("pair size = %d, want <= 68", ps)
	}
}

func TestCompressedSizeHelper(t *testing.T) {
	if CompressedSize(make([]byte, LineSize)) != 0 {
		t.Fatal("zero line size should be 0")
	}
	rng := rand.New(rand.NewPCG(21, 22))
	if CompressedSize(randomLine(rng)) != LineSize {
		t.Fatal("random line should be 64B")
	}
}

func TestAlgIDString(t *testing.T) {
	names := map[AlgID]string{
		AlgNone: "none", AlgZCA: "zca", AlgFPC: "fpc",
		AlgBDI: "bdi", AlgBDIPair: "bdi-pair", AlgID(99): "alg(99)",
	}
	for id, want := range names {
		if id.String() != want {
			t.Fatalf("AlgID(%d).String() = %q, want %q", id, id.String(), want)
		}
	}
}

func TestBitIO(t *testing.T) {
	var w bitWriter
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 5)
	w.WriteBits(0b11, 2)
	r := bitReader{buf: w.Bytes()}
	if got := r.ReadBits(3); got != 0b101 {
		t.Fatalf("got %b", got)
	}
	if got := r.ReadBits(8); got != 0xFF {
		t.Fatalf("got %b", got)
	}
	if got := r.ReadBits(5); got != 0 {
		t.Fatalf("got %b", got)
	}
	if got := r.ReadBits(2); got != 0b11 {
		t.Fatalf("got %b", got)
	}
}

func TestSignExtend(t *testing.T) {
	if signExtend(0xF, 4) != -1 {
		t.Fatal("0xF as 4-bit should be -1")
	}
	if signExtend(0x7, 4) != 7 {
		t.Fatal("0x7 as 4-bit should be 7")
	}
	if !fitsSigned(-8, 4) || fitsSigned(-9, 4) || !fitsSigned(7, 4) || fitsSigned(8, 4) {
		t.Fatal("fitsSigned 4-bit boundaries wrong")
	}
}
