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
		enc := CompressBest(line)
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
		if sum != 0 && LineSum(out) != sum {
			t.Fatal("accepted encoding violates its own checksum")
		}
	})
}

// FuzzCompressRoundtrip: any 64-byte line must survive CompressBest ->
// DecompressChecked bit-exactly, and any adjacent pair CompressPair ->
// DecompressPair, with sizes within physical bounds.
func FuzzCompressRoundtrip(f *testing.F) {
	for _, line := range sampleLines() {
		f.Add(line, line)
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, raw := range [][]byte{a, b} {
			line := make([]byte, LineSize)
			copy(line, raw)
			enc := CompressBest(line)
			if enc.Size() > LineSize {
				t.Fatalf("compressed size %d exceeds line size", enc.Size())
			}
			got, err := DecompressChecked(enc)
			if err != nil {
				t.Fatalf("own encoding rejected: %v", err)
			}
			if !bytes.Equal(got, line) {
				t.Fatal("round trip mismatch")
			}
		}

		la, lb := make([]byte, LineSize), make([]byte, LineSize)
		copy(la, a)
		copy(lb, b)
		p := CompressPair(la, lb)
		if p.Size() > 2*LineSize {
			t.Fatalf("pair size %d exceeds two lines", p.Size())
		}
		da, db, err := DecompressPair(p)
		if err != nil {
			t.Fatalf("own pair encoding rejected: %v", err)
		}
		if !bytes.Equal(da, la) || !bytes.Equal(db, lb) {
			t.Fatal("pair round trip mismatch")
		}
	})
}
