// Package data synthesizes deterministic 64-byte cache-line values with
// controllable compressibility. Every workload in the catalog carries a
// Profile tuned so that the fraction of lines compressing to <=32B, <=36B
// and pairs to <=68B under FPC+BDI matches the per-benchmark
// compressibility the paper reports in Figure 4. Values are pure
// functions of (seed, line address), so the simulated memory system never
// has to store data: any component can re-derive a line's bytes on
// demand, and compressed sizes are stable for the lifetime of a run.
//
// Compressibility is correlated within pages (a Profile's PageCoherence),
// which is the structure both DICE's insertion policy and the CIP
// predictor exploit (Section 5.2: lines within a page compress to similar
// sizes).
package data

import (
	"encoding/binary"
	"fmt"
)

// LineSize is the cache-line size in bytes.
const LineSize = 64

// Kind is a family of line values with a characteristic compressed size.
type Kind uint8

// Line value families.
const (
	// KindZero: all-zero line; ZCA compresses to 0B.
	KindZero Kind = iota
	// KindRep: one repeated 8-byte value; BDI-rep, 8B.
	KindRep
	// KindPtr64: 8-byte pointers near a per-page base; BDI b8d2, 24B.
	KindPtr64
	// KindPtr32: 4-byte offsets near a per-page base; BDI b4d2, 36B.
	KindPtr32
	// KindSmallInt: small signed 32-bit integers; FPC, ~14-22B.
	KindSmallInt
	// KindHalfword: 16-bit-ranged values; FPC 16-bit patterns, ~38B.
	KindHalfword
	// KindFloat: doubles with a common exponent but noisy mantissas;
	// effectively incompressible (64B) like lbm's stencil data.
	KindFloat
	// KindRandom: uniform random bytes; incompressible (64B).
	KindRandom
	// KindCount is the number of kinds.
	KindCount
)

// String names the kind.
func (k Kind) String() string {
	names := [...]string{"zero", "rep", "ptr64", "ptr32", "smallint", "halfword", "float", "random"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Profile is a distribution over kinds plus the probability that a line
// follows its page's kind rather than drawing independently.
type Profile struct {
	Weights       [KindCount]float64 // relative weight of each Kind; non-negative, not all zero
	PageCoherence float64            // 0..1; 0.95 typical
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	sum := 0.0
	for _, w := range p.Weights {
		if w < 0 {
			return fmt.Errorf("data: negative weight")
		}
		sum += w
	}
	if sum == 0 {
		return fmt.Errorf("data: all weights zero")
	}
	if p.PageCoherence < 0 || p.PageCoherence > 1 {
		return fmt.Errorf("data: PageCoherence %v out of [0,1]", p.PageCoherence)
	}
	return nil
}

// Uniform returns a profile with the given kinds equally weighted.
func Uniform(kinds ...Kind) Profile {
	var p Profile
	for _, k := range kinds {
		p.Weights[k] = 1
	}
	p.PageCoherence = 0.95
	return p
}

// Incompressible is the profile of noise-like workloads (lbm, libq).
func Incompressible() Profile {
	var p Profile
	p.Weights[KindRandom] = 0.7
	p.Weights[KindFloat] = 0.3
	p.PageCoherence = 0.97
	return p
}

// HighlyCompressible is the profile of integer/pointer workloads (mcf).
func HighlyCompressible() Profile {
	var p Profile
	p.Weights[KindZero] = 0.15
	p.Weights[KindRep] = 0.1
	p.Weights[KindSmallInt] = 0.25
	p.Weights[KindPtr32] = 0.3
	p.Weights[KindPtr64] = 0.15
	p.Weights[KindRandom] = 0.05
	p.PageCoherence = 0.95
	return p
}

// Synth deterministically generates line values for one address space.
type Synth struct {
	seed    uint64
	profile Profile
	cum     [KindCount]float64 // cumulative weights, normalized
}

// NewSynth builds a synthesizer. It panics on an invalid profile
// (profiles are static catalog entries).
func NewSynth(seed uint64, p Profile) *Synth {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s := &Synth{seed: seed, profile: p}
	sum := 0.0
	for _, w := range p.Weights {
		sum += w
	}
	acc := 0.0
	for i, w := range p.Weights {
		acc += w / sum
		s.cum[i] = acc
	}
	return s
}

// splitmix64 is the standard 64-bit mixing function; it drives all
// deterministic pseudo-randomness in this package.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

func (s *Synth) pickKind(h uint64) Kind {
	u := unitFloat(h)
	for k := Kind(0); k < KindCount; k++ {
		if u < s.cum[k] {
			return k
		}
	}
	return KindRandom
}

// KindOf returns the kind assigned to a line: its page's kind with
// probability PageCoherence, otherwise an independent draw.
func (s *Synth) KindOf(line uint64) Kind {
	page := line >> 6 // 4KB pages, 64 lines
	pageKind := s.pickKind(splitmix64(s.seed ^ page*0xA24BAED4963EE407))
	coin := unitFloat(splitmix64(s.seed ^ line*0x9FB21C651E98DF25 ^ 0x5851F42D4C957F2D))
	if coin < s.profile.PageCoherence {
		return pageKind
	}
	return s.pickKind(splitmix64(s.seed ^ line*0xD6E8FEB86659FD93))
}

// FillLine writes the line's 64 bytes into buf (len 64), every byte of
// it, so callers can reuse one buffer across lines.
func (s *Synth) FillLine(line uint64, buf []byte) {
	if len(buf) != LineSize {
		panic("data: FillLine needs a 64-byte buffer")
	}
	kind := s.KindOf(line)
	page := line >> 6
	h := splitmix64(s.seed ^ line*0x2545F4914F6CDD1D)
	pageH := splitmix64(s.seed ^ page*0x9E3779B97F4A7C15)

	switch kind {
	case KindZero:
		clear(buf)
	case KindRep:
		v := pageH &^ 0xFF // page-stable repeated value
		for i := 0; i < LineSize; i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], v)
		}
	case KindPtr64:
		// Pointers into a per-page region: common high bits, 16-bit
		// spread. Adjacent lines share the page base, so pair
		// base-sharing applies.
		base := pageH &^ 0xFFFFFF
		for i := 0; i < 8; i++ {
			d := splitmix64(h + uint64(i))
			binary.LittleEndian.PutUint64(buf[i*8:], base+d%30000)
		}
	case KindPtr32:
		base := uint32(pageH) &^ 0xFFFF
		if base == 0 {
			base = 0x40000000
		}
		for i := 0; i < 16; i++ {
			d := splitmix64(h + uint64(i))
			binary.LittleEndian.PutUint32(buf[i*4:], base+uint32(d%28000))
		}
	case KindSmallInt:
		// Values within the 8-bit sign-extended FPC pattern: 22B lines.
		for i := 0; i < 16; i++ {
			d := splitmix64(h + uint64(i))
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(d%120))
		}
	case KindHalfword:
		for i := 0; i < 16; i++ {
			d := splitmix64(h + uint64(i))
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(d%30000))
		}
	case KindFloat:
		// Same exponent byte pattern, noisy mantissa: defeats FPC and
		// BDI alike, like dense FP simulation data.
		for i := 0; i < 8; i++ {
			d := splitmix64(h + uint64(i))
			v := 0x3FF0000000000000 | d&0x000FFFFFFFFFFFFF
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
	default: // KindRandom
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], splitmix64(h+uint64(i)))
		}
	}
}
