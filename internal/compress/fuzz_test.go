package compress

import (
	"bytes"
	"testing"
)

// FuzzDecompressChecked feeds arbitrary encodings to the validated
// decompress path: whatever the bytes, it must return a 64-byte line or
// an error — never panic, never over-read.
func FuzzDecompressChecked(f *testing.F) {
	for _, line := range sampleLines() {
		enc := Compress(AlgNone, line)
		f.Add(uint8(enc.Alg), enc.Mode, enc.Sum, enc.Payload)
	}
	f.Add(uint8(AlgBDI), uint8(42), uint32(0), []byte{1, 2, 3})
	f.Add(uint8(AlgFPC), uint8(0), uint32(7), bytes.Repeat([]byte{0xFF}, 63))
	f.Add(uint8(200), uint8(200), uint32(1), []byte(nil))
	f.Fuzz(func(t *testing.T, alg, mode uint8, sum uint32, payload []byte) {
		enc := Encoding{Alg: AlgID(alg), Mode: mode, Payload: payload, Sum: sum}
		out, err := DecompressChecked(enc)
		if err != nil {
			return
		}
		if len(out) != LineSize {
			t.Fatalf("accepted encoding decoded to %d bytes", len(out))
		}
		if LineSum(out) != sum {
			t.Fatal("accepted encoding violates its own checksum")
		}
	})
}

// FuzzCompressRoundtrip: under every compressor, any 64-byte line must
// survive Compress -> DecompressChecked bit-exactly at exactly
// SizeWith's size, and any adjacent pair CompressPair -> DecompressPair
// at exactly PairSizeWith's, with sizes within physical bounds.
func FuzzCompressRoundtrip(f *testing.F) {
	for _, line := range sampleLines() {
		f.Add(line, line)
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		la, lb := make([]byte, LineSize), make([]byte, LineSize)
		copy(la, a)
		copy(lb, b)
		for _, alg := range compressors {
			for _, line := range [][]byte{la, lb} {
				enc := Compress(alg, line)
				if enc.Size() > LineSize || enc.Size() != SizeWith(alg, line) {
					t.Fatalf("%v: payload %dB, SizeWith %dB", alg, enc.Size(), SizeWith(alg, line))
				}
				got, err := DecompressChecked(enc)
				if err != nil {
					t.Fatalf("%v: own encoding rejected: %v", alg, err)
				}
				if !bytes.Equal(got, line) {
					t.Fatalf("%v: round trip mismatch", alg)
				}
			}

			p := CompressPair(alg, la, lb)
			if p.Size() > 2*LineSize || p.Size() != PairSizeWith(alg, la, lb) {
				t.Fatalf("%v: pair payload %dB, PairSizeWith %dB", alg, p.Size(), PairSizeWith(alg, la, lb))
			}
			da, db, err := DecompressPair(p)
			if err != nil {
				t.Fatalf("%v: own pair encoding rejected: %v", alg, err)
			}
			if !bytes.Equal(da, la) || !bytes.Equal(db, lb) {
				t.Fatalf("%v: pair round trip mismatch", alg)
			}
		}
	})
}
