package compress

import "encoding/binary"

// Frequent Pattern Compression (Alameldeen & Wood, 2004). The line is
// treated as sixteen 32-bit words; each word is encoded as a 3-bit
// pattern prefix followed by a variable-width payload. The patterns
// capture the frequent cases of small integers, zero words, half-word
// values and repeated bytes. Compressed size is rounded up to whole
// bytes, matching how the DRAM-cache set format allocates space.

// FPC word patterns (3-bit prefixes).
const (
	fpcZero         = 0 // all-zero word, no payload
	fpcSE4          = 1 // 4-bit sign-extended
	fpcSE8          = 2 // 8-bit sign-extended
	fpcSE16         = 3 // 16-bit sign-extended
	fpcHalfZero     = 4 // low half-word, upper half zero (16-bit payload)
	fpcHalfSE8      = 5 // two half-words, each a sign-extended byte (16-bit)
	fpcRepByte      = 6 // word of one repeated byte (8-bit payload)
	fpcUncompressed = 7 // raw 32-bit word
)

// fpcPayloadBits gives the payload width for each pattern.
var fpcPayloadBits = [8]uint{0, 4, 8, 16, 16, 16, 8, 32}

// fpcEncode writes line's FPC payload: each word's 3-bit pattern prefix
// and that pattern's payload bits. It checks nothing; fpcSizeOnly has
// already found the payload shorter than the raw line.
func fpcEncode(line []byte) []byte {
	var w bitWriter
	for i := 0; i < LineSize; i += 4 {
		word := binary.LittleEndian.Uint32(line[i : i+4])
		pat, payload := fpcClassify(word)
		w.WriteBits(uint64(pat), 3)
		w.WriteBits(uint64(payload), fpcPayloadBits[pat])
	}
	return w.Bytes()
}

// fpcClassify picks the cheapest pattern that represents word exactly.
func fpcClassify(word uint32) (pat uint8, payload uint32) {
	s := int64(int32(word))
	switch {
	case word == 0:
		return fpcZero, 0
	case fitsSigned(s, 4):
		return fpcSE4, word & 0xF
	case fitsSigned(s, 8):
		return fpcSE8, word & 0xFF
	case fitsSigned(s, 16):
		return fpcSE16, word & 0xFFFF
	case word&0xFFFF0000 == word: // low half zero, value in upper half
		return fpcHalfZero, word >> 16
	case fpcHalvesAreBytes(word):
		lo := word & 0xFFFF
		hi := word >> 16
		return fpcHalfSE8, (hi&0xFF)<<8 | lo&0xFF
	case fpcIsRepeatedByte(word):
		return fpcRepByte, word & 0xFF
	default:
		return fpcUncompressed, word
	}
}

// fpcExpand reverses fpcClassify.
func fpcExpand(pat uint8, payload uint64) uint32 {
	switch pat {
	case fpcZero:
		return 0
	case fpcSE4:
		return uint32(signExtend(payload, 4))
	case fpcSE8:
		return uint32(signExtend(payload, 8))
	case fpcSE16:
		return uint32(signExtend(payload, 16))
	case fpcHalfZero:
		return uint32(payload) << 16
	case fpcHalfSE8:
		lo := uint32(signExtend(payload&0xFF, 8)) & 0xFFFF
		hi := uint32(signExtend(payload>>8, 8)) & 0xFFFF
		return hi<<16 | lo
	case fpcRepByte:
		b := uint32(payload) & 0xFF
		return b | b<<8 | b<<16 | b<<24
	default:
		return uint32(payload)
	}
}

// fpcHalvesAreBytes reports whether each 16-bit half of word is a
// sign-extended byte.
func fpcHalvesAreBytes(word uint32) bool {
	lo := int64(int16(word & 0xFFFF))
	hi := int64(int16(word >> 16))
	return fitsSigned(lo, 8) && fitsSigned(hi, 8)
}

// fpcIsRepeatedByte reports whether all four bytes of word are equal.
func fpcIsRepeatedByte(word uint32) bool {
	b := word & 0xFF
	return word == b|b<<8|b<<16|b<<24
}
