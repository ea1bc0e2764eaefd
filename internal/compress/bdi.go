package compress

// Base-Delta compression in the style of Base-Delta-Immediate
// (Pekhimenko et al., PACT 2012). A line is viewed as an array of k-byte
// values; if every value is within a small signed delta of the line's
// base (its first value), the line is stored as the base plus narrow
// per-value deltas:
//
//	[base: k bytes][deltas: n*d bytes]   n = 64/k values
//
// This yields the canonical BDI sizes the DICE paper's thresholds are
// built around: b8d1=16, b4d1=20, b8d2=24, b2d1=34, b4d2=36, b8d4=40 and
// rep=8 bytes. (The "immediate" zero-base of full B∆I needs a per-value
// base-select bitmap; we omit it so that on-disk sizes match the
// published ones — mixed pointer/zero lines fall back to FPC or raw.)

// BDI sub-modes (stored in Encoding.Mode).
const (
	BDIRep  uint8 = iota // line is one repeated 8-byte value (8B payload)
	BDIB8D1              // 8-byte base, 1-byte deltas (16B)
	BDIB4D1              // 4-byte base, 1-byte deltas (20B)
	BDIB8D2              // 8-byte base, 2-byte deltas (24B)
	BDIB2D1              // 2-byte base, 1-byte deltas (34B)
	BDIB4D2              // 4-byte base, 2-byte deltas (36B)
	BDIB8D4              // 8-byte base, 4-byte deltas (40B)
	bdiModeCount
)

// bdiGeometry returns (base bytes, delta bytes) for a mode. BDIRep is
// special-cased by the codec.
func bdiGeometry(mode uint8) (k, d int) {
	switch mode {
	case BDIB8D1:
		return 8, 1
	case BDIB8D2:
		return 8, 2
	case BDIB8D4:
		return 8, 4
	case BDIB4D1:
		return 4, 1
	case BDIB4D2:
		return 4, 2
	case BDIB2D1:
		return 2, 1
	default:
		panic("compress: bad BDI mode")
	}
}

// bdiEncodedSize returns the payload size in bytes for a mode.
func bdiEncodedSize(mode uint8) int {
	if mode == BDIRep {
		return 8
	}
	k, d := bdiGeometry(mode)
	return k + (LineSize/k)*d
}

// bdiEncode writes line's BDI payload in mode: the repeated value for
// BDIRep, else the line's first value as the base followed by every
// value's delta. It checks nothing; bdiSizeOnly has already found that
// mode is the first one whose deltas fit.
func bdiEncode(line []byte, mode uint8) []byte {
	if mode == BDIRep {
		return cloneBytes(line[:8])
	}
	k, _ := bdiGeometry(mode)
	base := int64(readUint(line[:k], k))
	return append(cloneBytes(line[:k]), bdiDeltas(line, mode, base)...)
}

// readUint reads a little-endian unsigned integer of size k from b. The
// value is NOT sign extended; for k == 8 the full word is returned.
func readUint(b []byte, k int) uint64 {
	var v uint64
	for i := k - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// writeUint writes the low k bytes of v little-endian into b.
func writeUint(b []byte, v uint64, k int) {
	for i := 0; i < k; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
