// Package compress implements the low-latency cache-line compression
// algorithms DICE builds on: Frequent Pattern Compression (FPC),
// Base-Delta-Immediate (BDI), zero-content (ZCA), and the hybrid FPC+BDI
// selector the paper evaluates with. All algorithms are real round-trip
// codecs operating on 64-byte lines, with DecompressChecked the one
// decoder; compressed sizes are what the DRAM cache's flexible TAD
// format stores and what the DICE insertion threshold tests against.
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
	// Sum is a checksum of the original 64-byte line (see LineSum), set
	// by CompressBest/CompressPair. DecompressChecked verifies it, so
	// payload corruption is detected instead of silently decoded. Zero
	// means "no checksum" (encodings built directly by the per-algorithm
	// Compress methods); LineSum never returns zero.
	Sum uint32
}

// Size returns the number of payload bytes the encoding occupies in a set.
func (e Encoding) Size() int { return len(e.Payload) }

// CompressBest encodes line with the hybrid FPC+BDI policy used by DICE:
// try ZCA, FPC and BDI, keep whichever yields the smallest payload, and
// fall back to an uncompressed encoding when nothing beats 64 bytes.
func CompressBest(line []byte) Encoding {
	mustLine(line)
	if isZero(line) {
		return Encoding{Alg: AlgZCA, Sum: LineSum(line)}
	}
	best := Encoding{Alg: AlgNone, Payload: cloneBytes(line)}
	if enc, ok := (BDI{}).Compress(line); ok && enc.Size() < best.Size() {
		best = enc
	}
	if enc, ok := (FPC{}).Compress(line); ok && enc.Size() < best.Size() {
		best = enc
	}
	best.Sum = LineSum(line)
	return best
}

// CompressedSize returns the hybrid compressed size of a line in bytes
// (0 for an all-zero line, 64 for incompressible). It takes the
// allocation-free size-only path — always equal to
// CompressBest(line).Size(), which the equivalence tests enforce.
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
