// Package compress implements the low-latency cache-line compression
// algorithms DICE builds on: Frequent Pattern Compression (FPC),
// Base-Delta-Immediate (BDI), zero-content (ZCA), and the hybrid FPC+BDI
// selector the paper evaluates with. Each compressor makes one decision
// per line, in sizeChoice: SizeWith and PairSizeWith report it without
// allocating, and Compress and CompressPair write the encoding it chose.
// DecompressChecked and DecompressPair are the one decoder, the
// independent judge that every encoding round-trips at the size the
// sizers report. Compressed sizes are what the DRAM cache's flexible
// TAD format stores and what the DICE insertion threshold tests against.
package compress

import "fmt"

// LineSize is the cache-line size in bytes used throughout the system.
const LineSize = 64

// AlgID identifies the compression scheme used for a line. It is stored in
// the per-line metadata bits of the TAD format (the paper budgets up to 9
// metadata bits per entry; our IDs plus BDI mode fit comfortably).
type AlgID uint8

// Algorithm identifiers.
const (
	AlgNone    AlgID = iota // stored uncompressed (64B)
	AlgZCA                  // all-zero line (0B payload)
	AlgFPC                  // frequent-pattern compression
	AlgBDI                  // base-delta-immediate
	AlgBDIPair              // one BDI encoding covering two adjacent lines
)

// String returns the conventional name of the algorithm.
func (a AlgID) String() string {
	switch a {
	case AlgNone:
		return "none"
	case AlgZCA:
		return "zca"
	case AlgFPC:
		return "fpc"
	case AlgBDI:
		return "bdi"
	case AlgBDIPair:
		return "bdi-pair"
	default:
		return fmt.Sprintf("alg(%d)", uint8(a))
	}
}

// Encoding is one compressed line: the algorithm, a compact mode field
// (BDI base/delta geometry), and the encoded payload. Size() is the number
// of data bytes the line occupies in the cache set.
type Encoding struct {
	// Alg is the algorithm that produced Payload.
	Alg AlgID
	// Mode is the algorithm-specific sub-mode (BDI geometry).
	Mode uint8
	// Payload is the encoded line; its length is the line's stored size.
	Payload []byte
	// Sum is the checksum of the original 64-byte line (LineSum), set
	// on every encoding Compress and CompressPair build. The decoders
	// always verify it, so payload corruption is detected instead of
	// silently decoded.
	Sum uint32
}

// Size returns the number of payload bytes the encoding occupies in a set.
func (e Encoding) Size() int { return len(e.Payload) }

// Compress encodes line under one compressor: AlgFPC (FPC and zero
// lines), AlgBDI (BDI and zero lines), or any other alg for the hybrid
// FPC+BDI selector DICE uses. The algorithm and BDI mode are
// sizeChoice's, so the payload is always SizeWith(alg, line) bytes:
// ZCA for an all-zero line, the raw line when nothing beats 64 bytes.
func Compress(alg AlgID, line []byte) Encoding {
	_, chosen, mode := sizeChoice(alg, line)
	enc := Encoding{Alg: chosen, Sum: LineSum(line)}
	switch chosen {
	case AlgNone:
		enc.Payload = cloneBytes(line)
	case AlgFPC:
		enc.Payload = fpcEncode(line)
	case AlgBDI:
		// Only a BDI win sets Mode: sizeChoice keeps BDI's mode even
		// when FPC then beat it.
		enc.Mode, enc.Payload = mode, bdiEncode(line, mode)
	}
	return enc
}

// CompressedSize returns the hybrid compressed size of a line in bytes
// (0 for an all-zero line, 64 for incompressible), without allocating:
// Compress(AlgNone, line) writes a payload of exactly this size.
func CompressedSize(line []byte) int {
	return SizeWith(AlgNone, line)
}

func isZero(line []byte) bool {
	for _, b := range line {
		if b != 0 {
			return false
		}
	}
	return true
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func mustLine(line []byte) {
	if len(line) != LineSize {
		panic(fmt.Sprintf("compress: line must be %d bytes, got %d", LineSize, len(line)))
	}
}
