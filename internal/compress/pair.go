package compress

import "fmt"

// Pair compression: when BAI places two spatially adjacent lines in the
// same set, DICE compresses them together. Adjacent lines usually have
// similar value structure, so when both compress with the same BDI
// geometry the second line can reuse the first line's base, saving the
// base bytes — this is the base sharing the paper credits for two 36B
// BDI lines fitting in the 68 data bytes a shared-tag TAD provides
// (Section 4.2 and Table 4 discussion: single line → 36B, double line →
// 68B with shared tags).

// PairEncoding holds two adjacent lines compressed together. When
// SharedBase is true, B's payload omits its base and must be decoded with
// A's base.
type PairEncoding struct {
	// A and B are the even and odd lines' encodings.
	A, B Encoding
	// SharedBase reports that B's payload reuses A's BDI base.
	SharedBase bool
}

// Size returns the total data bytes the pair occupies in a set.
func (p PairEncoding) Size() int { return p.A.Size() + p.B.Size() }

// CompressPair encodes two adjacent 64-byte lines under one
// compressor (as Compress does). When pairSharedSize finds b riding on
// a's BDI base smaller than the two lines apart, b keeps only its
// deltas against that base; the pair is then PairSizeWith(alg, a, b)
// bytes either way.
func CompressPair(alg AlgID, a, b []byte) PairEncoding {
	encA, encB := Compress(alg, a), Compress(alg, b)
	shared, ok := pairSharedSize(a, b, encA.Size(), encA.Alg, encA.Mode)
	if !ok || shared >= encA.Size()+encB.Size() {
		return PairEncoding{A: encA, B: encB}
	}
	k, _ := bdiGeometry(encA.Mode)
	base := int64(readUint(a[:k], k))
	encB = Encoding{Alg: AlgBDIPair, Mode: encA.Mode, Payload: bdiDeltas(b, encA.Mode, base), Sum: encB.Sum}
	return PairEncoding{A: encA, B: encB, SharedBase: true}
}

// DecompressPair reverses CompressPair, returning the two original
// lines. Each line decodes through DecompressChecked's validation — a
// shared-base member against its buddy's base — so a malformed or
// corrupted pair is an error, never a panic.
func DecompressPair(p PairEncoding) (a, b []byte, err error) {
	if a, err = DecompressChecked(p.A); err != nil {
		return nil, nil, err
	}
	if !p.SharedBase {
		if b, err = DecompressChecked(p.B); err != nil {
			return nil, nil, err
		}
		return a, b, nil
	}
	if p.A.Alg != AlgBDI || p.A.Mode == BDIRep || p.B.Alg != AlgBDIPair || p.B.Mode != p.A.Mode {
		return nil, nil, fmt.Errorf("compress: malformed shared-base pair (%v mode %d, %v mode %d)",
			p.A.Alg, p.A.Mode, p.B.Alg, p.B.Mode)
	}
	k, d := bdiGeometry(p.A.Mode)
	if want := LineSize / k * d; len(p.B.Payload) != want {
		return nil, nil, fmt.Errorf("compress: shared-base payload is %d bytes, want %d", len(p.B.Payload), want)
	}
	base := int64(readUint(p.A.Payload[:k], k))
	b = bdiDecodeWithBase(p.B.Payload, p.B.Mode, base)
	if LineSum(b) != p.B.Sum {
		return nil, nil, fmt.Errorf("compress: shared-base payload fails line checksum")
	}
	return a, b, nil
}

// PairSize returns just the combined hybrid compressed size of two
// adjacent lines under the pairing policy, without allocating. The DRAM
// cache uses this to decide whether a BAI pair fits a set;
// CompressPair(AlgNone, a, b) writes a pair of exactly this size.
func PairSize(a, b []byte) int { return PairSizeWith(AlgNone, a, b) }

// bdiDeltas writes every k-byte value of line as its d-byte delta from
// base (base bytes omitted). It checks nothing: bdiFitsWithBase has
// already found every delta within d bytes, modulo the base width, so
// the delta's low d bytes are the whole of it.
func bdiDeltas(line []byte, mode uint8, base int64) []byte {
	k, d := bdiGeometry(mode)
	n := LineSize / k
	out := make([]byte, n*d)
	for i := 0; i < n; i++ {
		v := int64(readUint(line[i*k:(i+1)*k], k))
		writeUint(out[i*d:(i+1)*d], uint64(v-base), d)
	}
	return out
}

// bdiDecodeWithBase decodes a delta payload produced by bdiDeltas.
func bdiDecodeWithBase(payload []byte, mode uint8, base int64) []byte {
	k, d := bdiGeometry(mode)
	n := LineSize / k
	out := make([]byte, LineSize)
	for i := 0; i < n; i++ {
		delta := signExtend(readUint(payload[i*d:(i+1)*d], d), uint(d*8))
		writeUint(out[i*k:(i+1)*k], uint64(base+delta), k)
	}
	return out
}
