// Package trace defines the memory-reference streams the simulator
// replays, plus synthetic generators that reproduce the access-pattern
// axes DICE is sensitive to: footprint (working set vs. cache capacity),
// spatial locality (how often the next reference is an adjacent line —
// what BAI converts into bandwidth), temporal reuse (hot sets), striding,
// and write fraction. Streams are produced at the L3-access level: each
// request is a reference that missed the private L1/L2 levels, which is
// the traffic the shared L3 / L4 / main-memory system observes.
package trace

import "fmt"

// Request is one memory reference: a 64-byte-line address within the
// issuing core's virtual address space, and whether it stores.
type Request struct {
	Line  uint64 // 64-byte-line address in the core's virtual address space
	Write bool   // true for a store, false for a load
}

// Generator produces an endless request stream: synthetic generators
// run forever, and recorded traces wrap back to their first request.
type Generator interface {
	// Next returns the next request.
	Next() Request
}

// Generate materializes n requests from g.
func Generate(g Generator, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// SynthConfig parameterizes the synthetic generator. Pattern weights need
// not sum to 1; they are normalized.
type SynthConfig struct {
	// FootprintLines is the size of the touched region in 64B lines.
	FootprintLines uint64
	// SeqWeight selects streaming bursts of consecutive lines.
	SeqWeight float64
	// SeqRunLen is the mean burst length of a streaming run, in lines.
	SeqRunLen int
	// StrideWeight selects constant-stride runs.
	StrideWeight float64
	// StrideLines is the stride distance in lines.
	StrideLines uint64
	// RandWeight selects uniform random references over the footprint
	// (pointer-chasing behavior).
	RandWeight float64
	// HotWeight selects references into a small hot region (temporal
	// reuse that the L3/L4 capture).
	HotWeight float64
	// HotLines is the hot-region size in lines.
	HotLines uint64
	// WriteFrac is the store fraction (0..1).
	WriteFrac float64
	// Seed drives all pseudo-randomness.
	Seed uint64
}

// Validate reports configuration errors.
func (c SynthConfig) Validate() error {
	switch {
	case c.FootprintLines == 0:
		return fmt.Errorf("trace: FootprintLines must be positive")
	case c.SeqWeight < 0 || c.StrideWeight < 0 || c.RandWeight < 0 || c.HotWeight < 0:
		return fmt.Errorf("trace: negative pattern weight")
	case c.SeqWeight+c.StrideWeight+c.RandWeight+c.HotWeight == 0:
		return fmt.Errorf("trace: all pattern weights zero")
	case c.WriteFrac < 0 || c.WriteFrac > 1:
		return fmt.Errorf("trace: WriteFrac %v out of [0,1]", c.WriteFrac)
	case c.HotWeight > 0 && c.HotLines == 0:
		return fmt.Errorf("trace: HotWeight set but HotLines zero")
	}
	return nil
}

// mode identifies the active access pattern of the generator's state
// machine.
type mode uint8

const (
	modeSeq mode = iota
	modeStride
	modeRand
	modeHot
)

// Synthetic is a deterministic state-machine generator: it picks a
// pattern by weight, runs it for a burst, then re-draws.
type Synthetic struct {
	cfg  SynthConfig
	cum  [4]float64
	rng  uint64
	mode mode
	pos  uint64 // current line for seq/stride runs
	left int    // requests remaining in the current burst
}

// NewSynthetic builds a generator; it panics on invalid configuration.
func NewSynthetic(cfg SynthConfig) *Synthetic {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.SeqRunLen <= 0 {
		cfg.SeqRunLen = 16
	}
	if cfg.StrideLines == 0 {
		cfg.StrideLines = 8
	}
	g := &Synthetic{cfg: cfg}
	total := cfg.SeqWeight + cfg.StrideWeight + cfg.RandWeight + cfg.HotWeight
	g.cum[0] = cfg.SeqWeight / total
	g.cum[1] = g.cum[0] + cfg.StrideWeight/total
	g.cum[2] = g.cum[1] + cfg.RandWeight/total
	g.cum[3] = 1
	g.rng = cfg.Seed | 1
	return g
}

func (g *Synthetic) next64() uint64 {
	// splitmix64 stream.
	g.rng += 0x9E3779B97F4A7C15
	x := g.rng
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// unit draws a uniform float64 in [0, 1). The explicit float64 rounds
// the draw so no caller's addition fuses with its scaling into a
// multiply-add (arm64, ppc64le, s390x and riscv64 fuse; amd64 never
// does), keeping every GOARCH bit-identical.
func (g *Synthetic) unit() float64 { return float64(float64(g.next64()>>11) / (1 << 53)) }

// skewed draws a line from a power-law distribution over the footprint:
// P(line < x) = (x/F)^(1/k). Low line numbers are re-referenced heavily
// while reuse tapers smoothly across the whole working set — the shape
// of real miss-rate curves, avoiding artificial capacity cliffs.
func (g *Synthetic) skewed(k int) uint64 {
	u := g.unit()
	v := u
	for i := 1; i < k; i++ {
		v *= u
	}
	// Rounded before the conversion, which would otherwise fuse the
	// product with its 2^63 offset on ppc64le and riscv64.
	line := uint64(float64(v * float64(g.cfg.FootprintLines)))
	if line >= g.cfg.FootprintLines {
		line = g.cfg.FootprintLines - 1
	}
	return line
}

// Next implements Generator.
func (g *Synthetic) Next() Request {
	if g.left == 0 {
		g.redraw()
	}
	g.left--
	var line uint64
	switch g.mode {
	case modeSeq:
		line = g.pos % g.cfg.FootprintLines
		g.pos++
	case modeStride:
		line = g.pos % g.cfg.FootprintLines
		g.pos += g.cfg.StrideLines
	case modeRand:
		line = g.skewed(6)
	case modeHot:
		line = g.skewed(6)
		if hot := g.cfg.HotLines; hot > 0 && line < hot {
			// Within the hottest prefix, spread uniformly so the prefix
			// acts as the classic hot region.
			line = g.next64() % hot
		}
	}
	return Request{Line: line, Write: g.unit() < g.cfg.WriteFrac}
}

// redraw selects the next burst's pattern and length.
func (g *Synthetic) redraw() {
	u := g.unit()
	switch {
	case u < g.cum[0]:
		g.mode = modeSeq
		// Run starts follow the same skewed reuse distribution as the
		// other modes: sweeps revisit the hotter parts of the working
		// set more often than its cold tail.
		g.pos = g.skewed(4)
		// Burst lengths vary 0.5x..1.5x around the mean.
		g.left = 1 + int(float64(g.cfg.SeqRunLen)*(0.5+g.unit()))
	case u < g.cum[1]:
		g.mode = modeStride
		g.pos = g.skewed(4)
		g.left = 1 + int(8*(0.5+g.unit()))
	case u < g.cum[2]:
		g.mode = modeRand
		g.left = 1 + int(4*g.unit())
	default:
		g.mode = modeHot
		g.left = 1 + int(8*g.unit())
	}
}

// Replay replays a fixed request slice (used for kernel-generated
// traces), wrapping back to its first request at the end — kernel
// traces shorter than the simulation window loop, matching how the
// paper re-executes fixed-work regions. The slice is borrowed, not
// copied, and never written: many Replay values may share one backing
// trace — the workload artifact cache hands the same recorded kernel
// trace to every concurrent simulation — while each carries its own
// position.
type Replay struct {
	reqs []Request
	pos  int
}

// NewReplay wraps a materialized trace; it panics on an empty one,
// which has no stream to loop. The caller must not mutate reqs
// afterwards (see the sharing contract on Replay).
func NewReplay(reqs []Request) *Replay {
	if len(reqs) == 0 {
		panic("trace: NewReplay of an empty trace")
	}
	return &Replay{reqs: reqs}
}

// Next implements Generator.
func (r *Replay) Next() Request {
	req := r.reqs[r.pos]
	if r.pos++; r.pos == len(r.reqs) {
		r.pos = 0
	}
	return req
}
