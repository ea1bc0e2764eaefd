package compress

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Validated decompression, the package's one decoder. Encodings may
// have been corrupted (the fault model flips bits in stored frames, and
// fuzzing feeds arbitrary bytes), so DecompressChecked never panics and
// never over-reads: malformed algorithms, modes, payload lengths and
// checksum mismatches all come back as errors.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// LineSum is the per-line checksum every encoding carries: CRC-32C over
// the original 64 bytes.
func LineSum(line []byte) uint32 {
	return crc32.Checksum(line, crcTable)
}

// DecompressChecked decodes any single-line encoding produced by
// Compress, validating structure before touching the payload and
// verifying the line checksum after decoding. It returns an error
// instead of panicking, so corrupted cache frames are detected rather
// than crashing the simulator.
func DecompressChecked(enc Encoding) ([]byte, error) {
	var out []byte
	switch enc.Alg {
	case AlgNone:
		if len(enc.Payload) != LineSize {
			return nil, fmt.Errorf("compress: raw payload is %d bytes, want %d", len(enc.Payload), LineSize)
		}
		out = cloneBytes(enc.Payload)
	case AlgZCA:
		if len(enc.Payload) != 0 {
			return nil, fmt.Errorf("compress: zero-line encoding carries %d payload bytes", len(enc.Payload))
		}
		out = make([]byte, LineSize)
	case AlgFPC:
		var err error
		if out, err = fpcDecompressChecked(enc.Payload); err != nil {
			return nil, err
		}
	case AlgBDI:
		var err error
		if out, err = bdiDecompressChecked(enc.Mode, enc.Payload); err != nil {
			return nil, err
		}
	case AlgBDIPair:
		// A pair member's base lives in its buddy's encoding; it cannot be
		// decoded standalone, so reaching here means corrupt metadata.
		return nil, fmt.Errorf("compress: %v encoding cannot be decompressed standalone", enc.Alg)
	default:
		return nil, fmt.Errorf("compress: unknown algorithm %v", enc.Alg)
	}
	if LineSum(out) != enc.Sum {
		return nil, fmt.Errorf("compress: %v payload fails line checksum", enc.Alg)
	}
	return out, nil
}

// fpcDecompressChecked decodes an FPC payload with framing validation: a
// compressed payload is under 64 bytes, every word's bits must come from
// inside the buffer, and at most the final byte's padding may go unused.
func fpcDecompressChecked(payload []byte) ([]byte, error) {
	if len(payload) >= LineSize {
		return nil, fmt.Errorf("compress: FPC payload %d bytes, must be under %d", len(payload), LineSize)
	}
	r := bitReader{buf: payload}
	out := make([]byte, LineSize)
	for i := 0; i < LineSize; i += 4 {
		pat := uint8(r.ReadBits(3))
		payloadBits := r.ReadBits(fpcPayloadBits[pat])
		if r.nbit > 8*uint(len(payload)) {
			return nil, fmt.Errorf("compress: FPC payload truncated at word %d", i/4)
		}
		binary.LittleEndian.PutUint32(out[i:i+4], fpcExpand(pat, payloadBits))
	}
	if slack := 8*uint(len(payload)) - r.nbit; slack >= 8 {
		return nil, fmt.Errorf("compress: FPC payload has %d trailing bits", slack)
	}
	return out, nil
}

// bdiDecompressChecked decodes a BDI payload after validating the mode
// and the exact payload length that mode implies.
func bdiDecompressChecked(mode uint8, payload []byte) ([]byte, error) {
	if mode >= bdiModeCount {
		return nil, fmt.Errorf("compress: unknown BDI mode %d", mode)
	}
	if want := bdiEncodedSize(mode); len(payload) != want {
		return nil, fmt.Errorf("compress: BDI mode %d payload is %d bytes, want %d", mode, len(payload), want)
	}
	if mode == BDIRep {
		out := make([]byte, LineSize)
		for i := 0; i < LineSize; i += 8 {
			copy(out[i:i+8], payload[:8])
		}
		return out, nil
	}
	k, _ := bdiGeometry(mode)
	base := int64(readUint(payload[:k], k))
	return bdiDecodeWithBase(payload[k:], mode, base), nil
}
