package compress

import (
	"bytes"
	"strings"
	"testing"
)

// sampleLines covers every encoding family: zero (ZCA), repeated value
// (BDIRep), base+delta (BDI), small integers (FPC), and incompressible.
func sampleLines() [][]byte {
	zero := make([]byte, LineSize)
	rep := bytes.Repeat([]byte{0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67, 0x89}, 8)
	bdi := make([]byte, LineSize)
	for i := 0; i < 8; i++ {
		writeUint(bdi[i*8:], 0x1000_0000_0000+uint64(i*3), 8)
	}
	// Wildly varying word values defeat every BDI geometry, but each word
	// matches a cheap FPC pattern (zero, half-zero, repeated byte, SE16).
	fpc := make([]byte, LineSize)
	fpcWords := []uint32{0, 0x1234_0000, 0x5555_5555, 0x0000_7FFF}
	for i := 0; i < LineSize; i += 4 {
		writeUint(fpc[i:], uint64(fpcWords[(i/4)%len(fpcWords)]), 4)
	}
	raw := make([]byte, LineSize)
	for i := range raw {
		raw[i] = byte(splitmixByte(i))
	}
	return [][]byte{zero, rep, bdi, fpc, raw}
}

// splitmixByte gives incompressible-looking deterministic bytes.
func splitmixByte(i int) uint64 {
	x := uint64(i)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x * 0x94D049BB133111EB >> 56
}

func TestDecompressCheckedRoundTrip(t *testing.T) {
	for _, alg := range compressors {
		for i, line := range sampleLines() {
			enc := Compress(alg, line)
			if enc.Sum != LineSum(line) {
				t.Fatalf("%v line %d: Sum %#x, want LineSum %#x", alg, i, enc.Sum, LineSum(line))
			}
			got, err := DecompressChecked(enc)
			if err != nil {
				t.Fatalf("%v line %d (%v): %v", alg, i, enc.Alg, err)
			}
			if !bytes.Equal(got, line) {
				t.Fatalf("%v line %d (%v): round trip mismatch", alg, i, enc.Alg)
			}
		}
	}
}

func TestDecompressCheckedRejectsCorruption(t *testing.T) {
	bdiLine := sampleLines()[2]
	bdiEnc := Compress(AlgNone, bdiLine)
	if bdiEnc.Alg != AlgBDI {
		t.Fatalf("setup: expected a BDI line, got %v", bdiEnc.Alg)
	}
	fpcLine := sampleLines()[3]
	fpcEnc := Compress(AlgNone, fpcLine)
	if fpcEnc.Alg != AlgFPC {
		t.Fatalf("setup: expected an FPC line, got %v", fpcEnc.Alg)
	}

	flip := func(enc Encoding, byteIdx int) Encoding {
		p := cloneBytes(enc.Payload)
		p[byteIdx] ^= 0x10
		enc.Payload = p
		return enc
	}
	truncate := func(enc Encoding, n int) Encoding {
		enc.Payload = cloneBytes(enc.Payload)[:n]
		return enc
	}

	cases := []struct {
		name string
		enc  Encoding
		want string // error substring
	}{
		{"unknown alg", Encoding{Alg: AlgID(200), Payload: make([]byte, 8)}, "unknown algorithm"},
		{"pair member standalone", Encoding{Alg: AlgBDIPair, Mode: BDIB8D1, Payload: make([]byte, 8)}, "standalone"},
		{"raw short payload", Encoding{Alg: AlgNone, Payload: make([]byte, 63)}, "raw payload"},
		{"zca with payload", Encoding{Alg: AlgZCA, Payload: []byte{0}}, "zero-line"},
		{"bdi bad mode", Encoding{Alg: AlgBDI, Mode: 42, Payload: make([]byte, 16)}, "BDI mode"},
		{"bdi length mismatch", truncate(bdiEnc, bdiEnc.Size()-1), "payload is"},
		{"bdi payload flip", flip(bdiEnc, 0), "checksum"},
		{"fpc oversize", Encoding{Alg: AlgFPC, Payload: make([]byte, LineSize)}, "must be under"},
		{"fpc truncated", truncate(fpcEnc, 2), "truncated"},
		{"fpc payload flip", flip(fpcEnc, 0), ""},
		{"wrong checksum", Encoding{Alg: AlgZCA, Sum: 12345}, "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecompressChecked(tc.enc)
			if err == nil {
				t.Fatal("corrupt encoding accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestZeroedSumDoesNotDisableChecking: a zero Sum is a checksum like any
// other, not a switch that turns verification off, so a corrupted delta
// whose stored sum was zeroed too is still rejected, alone or as a
// shared-base pair member.
func TestZeroedSumDoesNotDisableChecking(t *testing.T) {
	enc := Compress(AlgNone, sampleLines()[2])
	if enc.Alg != AlgBDI {
		t.Fatalf("setup: expected a BDI line, got %v", enc.Alg)
	}
	enc.Payload = cloneBytes(enc.Payload)
	enc.Payload[len(enc.Payload)-1] ^= 0x01
	enc.Sum = 0
	if _, err := DecompressChecked(enc); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt BDI delta with zeroed sum: err %v, want checksum failure", err)
	}

	p := CompressPair(AlgNone, lineFromQwords(1<<50, 1<<50+4, 1<<50+9), lineFromQwords(1<<50+100, 1<<50+104, 1<<50+90))
	if !p.SharedBase {
		t.Fatal("setup: expected a shared-base pair")
	}
	p.B.Payload = cloneBytes(p.B.Payload)
	p.B.Payload[0] ^= 0x01
	p.B.Sum = 0
	if _, _, err := DecompressPair(p); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt pair member with zeroed sum: err %v, want checksum failure", err)
	}
}

// TestDecompressPairRejectsCorruption: a shared-base pair whose member
// payload, metadata or checksum is damaged decodes to an error.
func TestDecompressPairRejectsCorruption(t *testing.T) {
	a := lineFromQwords(1<<50, 1<<50+4, 1<<50+9)
	b := lineFromQwords(1<<50+100, 1<<50+104, 1<<50+90)
	good := CompressPair(AlgNone, a, b)
	if !good.SharedBase {
		t.Fatal("setup: expected a shared-base pair")
	}
	cases := map[string]func(p *PairEncoding){
		"member payload flip": func(p *PairEncoding) {
			p.B.Payload = cloneBytes(p.B.Payload)
			p.B.Payload[0] ^= 0x10
		},
		"member truncated": func(p *PairEncoding) { p.B.Payload = p.B.Payload[:1] },
		"member mode":      func(p *PairEncoding) { p.B.Mode = BDIB8D4 },
		"buddy not bdi":    func(p *PairEncoding) { p.A = Compress(AlgNone, make([]byte, LineSize)) },
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			p := good
			damage(&p)
			if _, _, err := DecompressPair(p); err == nil {
				t.Fatal("corrupt pair accepted")
			}
		})
	}
}
