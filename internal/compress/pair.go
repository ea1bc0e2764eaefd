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

// CompressPair encodes two adjacent 64-byte lines, preferring a shared-base
// BDI encoding when it is smaller than compressing each line independently.
func CompressPair(a, b []byte) PairEncoding {
	mustLine(a)
	mustLine(b)
	encA := CompressBest(a)
	encB := CompressBest(b)
	best := PairEncoding{A: encA, B: encB}

	// Shared base applies when A is a base+delta BDI encoding; re-encode B
	// against A's base with the same geometry and drop B's base bytes.
	if encA.Alg == AlgBDI && encA.Mode != BDIRep {
		k, _ := bdiGeometry(encA.Mode)
		base := int64(readUint(encA.Payload[:k], k))
		if payload, ok := bdiTryModeWithBase(b, encA.Mode, base); ok {
			shared := PairEncoding{
				A:          encA,
				B:          Encoding{Alg: AlgBDIPair, Mode: encA.Mode, Payload: payload, Sum: LineSum(b)},
				SharedBase: true,
			}
			if shared.Size() < best.Size() {
				best = shared
			}
		}
	}
	return best
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
	if p.B.Sum != 0 && LineSum(b) != p.B.Sum {
		return nil, nil, fmt.Errorf("compress: shared-base payload fails line checksum")
	}
	return a, b, nil
}

// PairSize returns just the combined compressed size of two adjacent lines
// under the pairing policy. The DRAM cache uses this to decide whether a
// BAI pair fits a set. It takes the allocation-free size-only path —
// always equal to CompressPair(a, b).Size(), which the equivalence
// tests enforce.
func PairSize(a, b []byte) int { return PairSizeWith(AlgNone, a, b) }

// bdiTryModeWithBase encodes line's deltas against a caller-supplied base
// (base bytes omitted from the payload). Used both by single-line BDI
// (with the line's own base) and for pair base sharing.
func bdiTryModeWithBase(line []byte, mode uint8, base int64) ([]byte, bool) {
	k, d := bdiGeometry(mode)
	n := LineSize / k
	deltaBits := uint(d * 8)

	payload := make([]byte, n*d)
	for i := 0; i < n; i++ {
		v := int64(readUint(line[i*k:(i+1)*k], k))
		delta := v - base
		// Wrap deltas modulo the base width so that e.g. 2-byte values
		// 0xFFFF and 0x0001 are one apart, matching hardware arithmetic.
		if k < 8 {
			delta = signExtend(uint64(delta), uint(k*8))
		}
		if !fitsSigned(delta, deltaBits) {
			return nil, false
		}
		writeUint(payload[i*d:(i+1)*d], uint64(delta), d)
	}
	return payload, true
}

// bdiDecodeWithBase decodes a delta payload produced by bdiTryModeWithBase.
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
