package compress

// bitWriter packs values MSB-first into a byte slice. FPC encodings are
// bit-granular (3-bit prefixes, 4-bit payloads), so a real round-trip codec
// needs sub-byte packing.
type bitWriter struct {
	buf  []byte
	nbit uint // number of bits written so far
}

// WriteBits appends the low n bits of v, most significant first.
func (w *bitWriter) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		bit := (v >> uint(i)) & 1
		byteIdx := w.nbit / 8
		if int(byteIdx) == len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		if bit != 0 {
			w.buf[byteIdx] |= 1 << (7 - w.nbit%8)
		}
		w.nbit++
	}
}

// Bytes returns the packed bytes written so far.
func (w *bitWriter) Bytes() []byte { return w.buf }

// bitReader unpacks values MSB-first from a byte slice.
type bitReader struct {
	buf  []byte
	nbit uint
}

// ReadBits reads n bits and returns them in the low bits of the result.
// Reading past the end returns zero bits, which callers treat as a framing
// error via their own length checks.
func (r *bitReader) ReadBits(n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		byteIdx := r.nbit / 8
		var bit uint64
		if int(byteIdx) < len(r.buf) {
			bit = uint64(r.buf[byteIdx]>>(7-r.nbit%8)) & 1
		}
		v = v<<1 | bit
		r.nbit++
	}
	return v
}

// signExtend interprets the low n bits of v as a two's-complement signed
// value and returns it widened to int64.
func signExtend(v uint64, n uint) int64 {
	shift := 64 - n
	return int64(v<<shift) >> shift
}

// fitsSigned reports whether the signed value x is representable in n bits
// of two's complement.
func fitsSigned(x int64, n uint) bool {
	min := int64(-1) << (n - 1)
	max := -min - 1
	return x >= min && x <= max
}
