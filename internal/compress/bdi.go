package compress

import "encoding/binary"

// BDI implements Base-Delta compression in the style of Base-Delta-
// Immediate (Pekhimenko et al., PACT 2012). A line is viewed as an array
// of k-byte values; if every value is within a small signed delta of the
// line's base (its first value), the line is stored as the base plus
// narrow per-value deltas:
//
//	[base: k bytes][deltas: n*d bytes]   n = 64/k values
//
// This yields the canonical BDI sizes the DICE paper's thresholds are
// built around: b8d1=16, b4d1=20, b8d2=24, b2d1=34, b4d2=36, b8d4=40 and
// rep=8 bytes. (The "immediate" zero-base of full B∆I needs a per-value
// base-select bitmap; we omit it so that on-disk sizes match the
// published ones — mixed pointer/zero lines fall back to FPC or raw.)
type BDI struct{}

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

// Compress encodes a 64-byte line, or reports ok false when no mode
// fits. Modes are ordered by encoded size, so the first success is the
// smallest encoding.
func (BDI) Compress(line []byte) (Encoding, bool) {
	mustLine(line)
	if payload, ok := bdiTryRep(line); ok {
		return Encoding{Alg: AlgBDI, Mode: BDIRep, Payload: payload}, true
	}
	for mode := BDIB8D1; mode < bdiModeCount; mode++ {
		if payload, ok := bdiTryMode(line, mode); ok {
			return Encoding{Alg: AlgBDI, Mode: mode, Payload: payload}, true
		}
	}
	return Encoding{}, false
}

// bdiTryRep checks for a line consisting of one repeated 8-byte value.
func bdiTryRep(line []byte) ([]byte, bool) {
	first := binary.LittleEndian.Uint64(line[:8])
	for i := 8; i < LineSize; i += 8 {
		if binary.LittleEndian.Uint64(line[i:i+8]) != first {
			return nil, false
		}
	}
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, first)
	return payload, true
}

// bdiTryMode attempts one base+delta geometry with the line's first value
// as the base.
func bdiTryMode(line []byte, mode uint8) ([]byte, bool) {
	k, _ := bdiGeometry(mode)
	base := int64(readUint(line[:k], k))
	rest, ok := bdiTryModeWithBase(line, mode, base)
	if !ok {
		return nil, false
	}
	payload := make([]byte, bdiEncodedSize(mode))
	writeUint(payload[:k], uint64(base), k)
	copy(payload[k:], rest)
	return payload, true
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
