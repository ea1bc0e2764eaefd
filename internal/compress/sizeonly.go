package compress

import "encoding/binary"

// Size-only compression: the DRAM cache consults compressed sizes on
// every install, repack and index decision, but it only needs the
// *size*. These paths make each compressor's one decision — which
// algorithm and BDI mode, at what size — without materializing any
// payload, which removes all allocation from the cache's sizing hot
// path. Compress and CompressPair write what they decide, and the
// decoders judge it: TestSizeIsSmallestLosslessEncoding checks every
// size is the smallest encoding DecompressChecked turns back into the
// line.

// fpcSizeOnly returns FPC's encoded size in bytes without building the
// payload; ok is false when FPC cannot beat the raw line.
func fpcSizeOnly(line []byte) (int, bool) {
	bits := uint(0)
	for i := 0; i < LineSize; i += 4 {
		word := binary.LittleEndian.Uint32(line[i : i+4])
		pat, _ := fpcClassify(word)
		bits += 3 + fpcPayloadBits[pat]
	}
	size := int((bits + 7) / 8)
	if size >= LineSize {
		return 0, false
	}
	return size, true
}

// bdiIsRep reports whether the line is one repeated 8-byte value.
func bdiIsRep(line []byte) bool {
	first := binary.LittleEndian.Uint64(line[:8])
	for i := 8; i < LineSize; i += 8 {
		if binary.LittleEndian.Uint64(line[i:i+8]) != first {
			return false
		}
	}
	return true
}

// bdiFitsWithBase reports whether every k-byte value of line is within
// mode's delta width of base, wrapping modulo the base width so that
// e.g. 2-byte values 0xFFFF and 0x0001 are one apart, as hardware
// arithmetic has it.
func bdiFitsWithBase(line []byte, mode uint8, base int64) bool {
	k, d := bdiGeometry(mode)
	n := LineSize / k
	deltaBits := uint(d * 8)
	for i := 0; i < n; i++ {
		v := int64(readUint(line[i*k:(i+1)*k], k))
		delta := v - base
		if k < 8 {
			delta = signExtend(uint64(delta), uint(k*8))
		}
		if !fitsSigned(delta, deltaBits) {
			return false
		}
	}
	return true
}

// bdiSizeOnly returns BDI's encoded size and chosen mode without
// building the payload. Modes are tried in order of encoded size, so
// the first that fits is the smallest.
func bdiSizeOnly(line []byte) (size int, mode uint8, ok bool) {
	if bdiIsRep(line) {
		return 8, BDIRep, true
	}
	for mode := BDIB8D1; mode < bdiModeCount; mode++ {
		k, _ := bdiGeometry(mode)
		base := int64(readUint(line[:k], k))
		if bdiFitsWithBase(line, mode, base) {
			return bdiEncodedSize(mode), mode, true
		}
	}
	return 0, 0, false
}

// sizeChoice is each compressor's one decision for a line, made without
// allocating: the compressed size, the algorithm Compress encodes with,
// and the BDI mode (meaningful only when chosen is AlgBDI). AlgBDI
// tries only BDI and AlgFPC only FPC; any other alg is the hybrid
// selector, which tries both: BDI replaces the raw encoding when
// smaller, FPC replaces the current best only when strictly smaller,
// so BDI wins size ties. Every compressor sizes a zero line as AlgZCA,
// 0 bytes.
func sizeChoice(alg AlgID, line []byte) (size int, chosen AlgID, bdiMode uint8) {
	mustLine(line)
	if isZero(line) {
		return 0, AlgZCA, 0
	}
	size, chosen = LineSize, AlgNone
	if alg != AlgFPC {
		if s, m, ok := bdiSizeOnly(line); ok && s < size {
			size, chosen, bdiMode = s, AlgBDI, m
		}
	}
	if alg != AlgBDI {
		if s, ok := fpcSizeOnly(line); ok && s < size {
			size, chosen = s, AlgFPC
		}
	}
	return size, chosen, bdiMode
}

// pairSharedSize returns the shared-base pair size for b riding on a's
// BDI encoding (alg/mode/size from sizeChoice of a), or ok=false when
// base sharing does not apply. PairSizeWith and CompressPair both take
// its verdict.
func pairSharedSize(a, b []byte, sizeA int, algA AlgID, modeA uint8) (int, bool) {
	if algA != AlgBDI || modeA == BDIRep {
		return 0, false
	}
	k, d := bdiGeometry(modeA)
	base := int64(readUint(a[:k], k))
	if !bdiFitsWithBase(b, modeA, base) {
		return 0, false
	}
	return sizeA + (LineSize/k)*d, true
}
