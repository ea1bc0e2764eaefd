// Package workloads is the catalog of the paper's evaluation workloads
// (Table 3): the 16 memory-intensive SPEC 2006 rate-mode benchmarks, the
// 6 GAP graph workloads (bc/cc/pr on twitter-like and web-like inputs),
// the 4 random 8-benchmark mixes, and the 13 non-memory-intensive SPEC
// benchmarks of Figure 13. Each entry carries the published L3 MPKI and
// 8-copy footprint, an access-pattern model, and a data-value profile
// tuned to the benchmark's measured compressibility (Figure 4).
//
// The paper's Pin-based instruction traces are proprietary; these models
// reproduce the four axes its results depend on — memory intensity,
// footprint:capacity ratio, spatial locality, and data compressibility —
// as documented in DESIGN.md.
package workloads

import (
	"fmt"
	"slices"
	"sync"

	"dice/internal/compress"
	"dice/internal/data"
	"dice/internal/graph"
	"dice/internal/trace"
)

// Suite labels the aggregation groups used in the paper's tables.
type Suite string

// Aggregation groups.
const (
	SuiteRate    Suite = "RATE"    // 16 SPEC rate-mode workloads
	SuiteMix     Suite = "MIX"     // 4 mixed workloads
	SuiteGAP     Suite = "GAP"     // 6 graph workloads
	SuiteLowMPKI Suite = "LOWMPKI" // 13 non-memory-intensive (Fig 13)
)

// pattern bundles the synthetic access-pattern weights of one benchmark.
type pattern struct {
	seq, stride, rand, hot float64
	seqRun                 int
	strideLines            uint64
	hotFrac                float64 // hot region as a fraction of footprint
	writeFrac              float64
}

// gapInput selects a graph topology for GAP workloads.
type gapInput uint8

const (
	inputTwitter gapInput = iota // RMAT power-law
	inputWeb                     // clustered web graph
)

// CoreLoad describes what one core runs.
type CoreLoad struct {
	// Name is the benchmark name (e.g. "mcf", "pr_twi").
	Name string
	// MPKI is the published L3 misses per kilo-instruction (Table 3),
	// which sets the stream's memory intensity.
	MPKI float64
	// FootprintBytes is this core's share of the published 8-copy
	// footprint at full (1GB-cache) scale.
	FootprintBytes uint64

	pat     pattern
	profile data.Profile
	kernel  *gapKernel
}

type gapKernel struct {
	k     graph.Kernel
	input gapInput
}

// Workload is one 8-core experiment unit.
type Workload struct {
	// Name is the workload's catalog name (e.g. "mcf", "mix1",
	// "pr_twi"), unique across the catalog.
	Name string
	// Suite is the aggregation group the paper's tables report it in.
	Suite Suite
	// Cores holds what each of the 8 cores runs, in core order.
	Cores []CoreLoad
}

// Instance is a built, runnable per-core load: a request generator over a
// private virtual line space plus the data image behind it, and the
// compressed sizes of that image (Size, PairSize). One goroutine uses
// an Instance at a time: its sizing reuses a scratch buffer.
type Instance struct {
	// Name is the benchmark this core runs.
	Name string
	// MPKI is the benchmark's published L3 misses per
	// kilo-instruction, copied from its CoreLoad.
	MPKI float64
	// FootprintLines is the size of the core's virtual line space at
	// the built scale: the lines Gen addresses and Fill serves.
	FootprintLines uint64
	// Gen is this instance's own request stream; no other instance
	// shares its state.
	Gen trace.Generator
	// Fill writes the 64 bytes of a virtual line into buf (len 64).
	Fill func(line uint64, buf []byte)

	// sizes is the artifact's shared size table behind Size and
	// PairSize; scratch holds the lines they fill on a table miss.
	sizes   *sizeTable
	scratch *[2][compress.LineSize]byte
}

// Compressibility counts the Figure 4 sample of an instance's data
// image under FPC+BDI: how many sampled lines compress to at most 32 or
// 36 bytes alone, and how many even-aligned adjacent pairs to at most
// 68 bytes together. It also counts where FPC matters to the hybrid.
type Compressibility struct {
	// Lines is how many lines were sampled; Le32 and Le36 count those
	// compressing to at most 32 and 36 bytes.
	Lines, Le32, Le36 int
	// FPCSmaller counts sampled lines FPC alone compresses strictly
	// smaller than BDI alone; FPCCrosses36 counts those the hybrid fits
	// in 36 bytes while BDI alone needs more, so only FPC puts them
	// under DICE's insertion threshold.
	FPCSmaller, FPCCrosses36 int
	// Pairs is how many even-aligned pairs were sampled; Pair68 counts
	// those compressing to at most 68 bytes together.
	Pairs, Pair68 int
}

// Compressibility samples about samples lines evenly across the
// instance's footprint, pairing each even sampled line with its
// neighbour.
func (in Instance) Compressibility(samples int) Compressibility {
	var c Compressibility
	var a, b [compress.LineSize]byte
	span := in.FootprintLines
	step := span/uint64(samples) + 1
	for line := uint64(0); line < span; line += step {
		in.Fill(line, a[:])
		sz := compress.CompressedSize(a[:])
		c.Lines++
		if sz <= 32 {
			c.Le32++
		}
		if sz <= 36 {
			c.Le36++
		}
		bdi := compress.SizeWith(compress.AlgBDI, a[:])
		if compress.SizeWith(compress.AlgFPC, a[:]) < bdi {
			c.FPCSmaller++
		}
		if sz <= 36 && bdi > 36 {
			c.FPCCrosses36++
		}
		if line%2 == 0 && line+1 < span {
			c.Pairs++
			in.Fill(line+1, b[:])
			if compress.PairSize(a[:], b[:]) <= 68 {
				c.Pair68++
			}
		}
	}
	return c
}

// builtGAP is the shared build product of one GAP (kernel, input)
// pair: the graph workspace (its FillLine method is a pure read over
// the finished kernel arrays), the recorded request trace, and the
// size table every core reading that image shares. All but the table
// are immutable.
type builtGAP struct {
	ws             *graph.Workspace
	reqs           []trace.Request
	footprintLines uint64
	sizes          sizeTable
}

// buildGAP sizes a graph so the kernel's footprint matches the scaled
// per-core Table 3 footprint, runs the kernel, and returns its trace and
// data image.
func buildGAP(cl CoreLoad, scaleShift uint) *builtGAP {
	target := cl.FootprintBytes >> scaleShift
	if target < 1<<21 {
		target = 1 << 21
	}
	var g *graph.CSR
	seed := hashName(cl.Name)
	if cl.kernel.input == inputTwitter {
		// RMAT footprint ~ N*(arrays) + 64N (col): ~92B per vertex at
		// edge factor 8.
		scale := 10
		for (uint64(92)<<uint(scale)) < target && scale < 22 {
			scale++
		}
		g = graph.RMAT(scale, 8, seed)
	} else {
		n := int(target / 92)
		if n < 1024 {
			n = 1024
		}
		g = graph.Web(n, 8, seed)
	}
	const traceBudget = 600_000
	ws := graph.Trace(cl.kernel.k, g, traceBudget)
	return &builtGAP{
		ws:             ws,
		reqs:           ws.Requests(),
		footprintLines: ws.FootprintBytes() >> 6,
	}
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// mix builds a data profile from kind weights in the fixed order: zero,
// rep, ptr64, ptr32, smallint, halfword, float, random.
func mix(zero, rep, ptr64, ptr32, small, half, fl, random float64) data.Profile {
	var p data.Profile
	p.Weights[data.KindZero] = zero
	p.Weights[data.KindRep] = rep
	p.Weights[data.KindPtr64] = ptr64
	p.Weights[data.KindPtr32] = ptr32
	p.Weights[data.KindSmallInt] = small
	p.Weights[data.KindHalfword] = half
	p.Weights[data.KindFloat] = fl
	p.Weights[data.KindRandom] = random
	p.PageCoherence = 0.9
	return p
}

const gb = 1 << 30
const mb = 1 << 20

// spec defines one SPEC benchmark's model. Footprints and MPKI follow
// Table 3 (8-copy totals); the pattern and profile encode the
// benchmark's qualitative behavior and Figure 4 compressibility.
func spec(name string, mpki float64, footprint uint64, pat pattern, prof data.Profile) CoreLoad {
	return CoreLoad{
		Name: name, MPKI: mpki,
		FootprintBytes: footprint / 8,
		pat:            pat, profile: prof,
	}
}

// specTable returns the 16 memory-intensive SPEC models keyed by name.
func specTable() map[string]CoreLoad {
	t := map[string]CoreLoad{}
	add := func(cl CoreLoad) { t[cl.Name] = cl }

	// Pointer-chasing integer code; highly compressible small values and
	// pointers (Fig 4: among the most compressible).
	add(spec("mcf", 53.6, 13200*mb,
		pattern{seq: 0.10, stride: 0.05, rand: 0.45, hot: 0.40, seqRun: 8, strideLines: 16, hotFrac: 0.04, writeFrac: 0.22},
		mix(0.12, 0.08, 0.20, 0.30, 0.20, 0.02, 0.00, 0.08)))
	// Streaming FP stencil; essentially incompressible.
	add(spec("lbm", 27.5, 3200*mb,
		pattern{seq: 0.72, stride: 0.05, rand: 0.05, hot: 0.18, seqRun: 48, strideLines: 8, hotFrac: 0.05, writeFrac: 0.45},
		mix(0.02, 0.00, 0.00, 0.03, 0.00, 0.05, 0.55, 0.35)))
	// LP solver; mixed sparse-matrix data, quite compressible.
	add(spec("soplex", 26.8, 1900*mb,
		pattern{seq: 0.32, stride: 0.10, rand: 0.20, hot: 0.38, seqRun: 20, strideLines: 12, hotFrac: 0.06, writeFrac: 0.15},
		mix(0.10, 0.05, 0.12, 0.25, 0.15, 0.08, 0.10, 0.15)))
	// Lattice QCD; FP-heavy with moderate structure.
	add(spec("milc", 25.7, 2900*mb,
		pattern{seq: 0.42, stride: 0.10, rand: 0.16, hot: 0.32, seqRun: 24, strideLines: 16, hotFrac: 0.05, writeFrac: 0.30},
		mix(0.08, 0.02, 0.05, 0.15, 0.05, 0.10, 0.30, 0.25)))
	// Compiler; small working set, very compressible int/pointer data.
	add(spec("gcc", 22.7, 264*mb,
		pattern{seq: 0.40, stride: 0.10, rand: 0.15, hot: 0.35, seqRun: 16, strideLines: 8, hotFrac: 0.10, writeFrac: 0.25},
		mix(0.20, 0.08, 0.15, 0.25, 0.20, 0.05, 0.00, 0.07)))
	// Quantum simulation; long streams of incompressible state.
	add(spec("libq", 22.2, 256*mb,
		pattern{seq: 0.82, stride: 0.02, rand: 0.03, hot: 0.13, seqRun: 64, strideLines: 8, hotFrac: 0.05, writeFrac: 0.35},
		mix(0.02, 0.00, 0.00, 0.02, 0.02, 0.04, 0.30, 0.60)))
	// GemsFDTD; FP fields, little compression.
	add(spec("Gems", 17.2, 6400*mb,
		pattern{seq: 0.45, stride: 0.15, rand: 0.13, hot: 0.27, seqRun: 32, strideLines: 24, hotFrac: 0.04, writeFrac: 0.35},
		mix(0.04, 0.00, 0.02, 0.06, 0.02, 0.06, 0.45, 0.35)))
	// Discrete-event simulator; pointer structures, compressible.
	add(spec("omnetpp", 16.4, 1300*mb,
		pattern{seq: 0.08, stride: 0.04, rand: 0.45, hot: 0.43, seqRun: 8, strideLines: 8, hotFrac: 0.05, writeFrac: 0.28},
		mix(0.12, 0.06, 0.22, 0.25, 0.15, 0.05, 0.02, 0.13)))
	// CFD; structured FP with some smooth regions (a DICE standout).
	add(spec("leslie3d", 14.6, 624*mb,
		pattern{seq: 0.50, stride: 0.12, rand: 0.10, hot: 0.28, seqRun: 28, strideLines: 16, hotFrac: 0.06, writeFrac: 0.30},
		mix(0.08, 0.02, 0.08, 0.22, 0.08, 0.12, 0.20, 0.20)))
	// Speech recognition; mixed, mostly incompressible FP models.
	add(spec("sphinx", 12.9, 128*mb,
		pattern{seq: 0.25, stride: 0.08, rand: 0.35, hot: 0.32, seqRun: 12, strideLines: 8, hotFrac: 0.08, writeFrac: 0.10},
		mix(0.04, 0.02, 0.04, 0.10, 0.06, 0.09, 0.35, 0.30)))
	// Astrophysics CFD; compressible structured fields (DICE standout).
	add(spec("zeusmp", 5.2, 2900*mb,
		pattern{seq: 0.45, stride: 0.12, rand: 0.13, hot: 0.30, seqRun: 24, strideLines: 16, hotFrac: 0.05, writeFrac: 0.30},
		mix(0.15, 0.05, 0.10, 0.25, 0.10, 0.10, 0.10, 0.15)))
	// Weather model; moderate compressibility (DICE standout).
	add(spec("wrf", 5.1, 1400*mb,
		pattern{seq: 0.42, stride: 0.12, rand: 0.14, hot: 0.32, seqRun: 20, strideLines: 12, hotFrac: 0.06, writeFrac: 0.25},
		mix(0.10, 0.03, 0.10, 0.22, 0.10, 0.10, 0.15, 0.20)))
	// Relativity solver; moderate (DICE standout).
	add(spec("cactus", 4.9, 3300*mb,
		pattern{seq: 0.45, stride: 0.12, rand: 0.13, hot: 0.30, seqRun: 24, strideLines: 16, hotFrac: 0.05, writeFrac: 0.30},
		mix(0.08, 0.02, 0.10, 0.20, 0.08, 0.12, 0.20, 0.20)))
	// Path search; pointer graph, compressible, reuse-heavy.
	add(spec("astar", 4.5, 1100*mb,
		pattern{seq: 0.10, stride: 0.05, rand: 0.40, hot: 0.45, seqRun: 8, strideLines: 8, hotFrac: 0.06, writeFrac: 0.20},
		mix(0.15, 0.06, 0.18, 0.25, 0.15, 0.06, 0.00, 0.15)))
	// Compression benchmark; its buffers are already high-entropy.
	add(spec("bzip2", 3.6, 2500*mb,
		pattern{seq: 0.35, stride: 0.10, rand: 0.25, hot: 0.30, seqRun: 16, strideLines: 8, hotFrac: 0.05, writeFrac: 0.30},
		mix(0.06, 0.02, 0.06, 0.14, 0.08, 0.09, 0.10, 0.45)))
	// XML transform; pointer/string structures, compressible.
	add(spec("xalanc", 2.2, 1900*mb,
		pattern{seq: 0.22, stride: 0.08, rand: 0.30, hot: 0.40, seqRun: 12, strideLines: 8, hotFrac: 0.08, writeFrac: 0.18},
		mix(0.14, 0.05, 0.15, 0.22, 0.15, 0.07, 0.02, 0.20)))
	return t
}

// rateOrder is the presentation order of Table 3 / Figures 7 and 10.
var rateOrder = []string{
	"mcf", "lbm", "soplex", "milc", "gcc", "libq", "Gems", "omnetpp",
	"leslie3d", "sphinx", "zeusmp", "wrf", "cactus", "astar", "bzip2", "xalanc",
}

// gapTable returns the 6 GAP workload models (Table 3).
func gapTable() []CoreLoad {
	mk := func(name string, mpki float64, fp uint64, k graph.Kernel, in gapInput) CoreLoad {
		return CoreLoad{
			Name: name, MPKI: mpki, FootprintBytes: fp / 8,
			kernel: &gapKernel{k: k, input: in},
		}
	}
	return []CoreLoad{
		mk("bc_twi", 69.7, 19700*mb, graph.BetweennessCentrality, inputTwitter),
		mk("bc_web", 17.7, 25000*mb, graph.BetweennessCentrality, inputWeb),
		mk("cc_twi", 93.9, 14300*mb, graph.ConnectedComponents, inputTwitter),
		mk("cc_web", 9.4, 16000*mb, graph.ConnectedComponents, inputWeb),
		mk("pr_twi", 112.9, 23100*mb, graph.PageRank, inputTwitter),
		mk("pr_web", 16.7, 25200*mb, graph.PageRank, inputWeb),
	}
}

// lowMPKITable returns the 13 non-memory-intensive benchmarks (Fig 13):
// small footprints that mostly fit on-chip, MPKI < 2.
func lowMPKITable() []CoreLoad {
	mk := func(name string, mpki float64, fpMB uint64, prof data.Profile) CoreLoad {
		return spec(name, mpki, fpMB*mb,
			pattern{seq: 0.4, stride: 0.1, rand: 0.2, hot: 0.3, seqRun: 16,
				strideLines: 8, hotFrac: 0.25, writeFrac: 0.2},
			prof)
	}
	c := mix(0.12, 0.05, 0.12, 0.2, 0.15, 0.08, 0.08, 0.2) // generic mix
	f := mix(0.05, 0.01, 0.04, 0.1, 0.05, 0.1, 0.35, 0.3)  // FP-leaning
	return []CoreLoad{
		mk("bwaves", 1.8, 96, f),
		mk("calculix", 0.6, 48, f),
		mk("dealII", 1.1, 64, c),
		mk("gamess", 0.2, 16, f),
		mk("gobmk", 0.5, 24, c),
		mk("gromacs", 0.7, 32, f),
		mk("h264", 0.9, 40, c),
		mk("hmmer", 0.4, 24, c),
		mk("namd", 0.3, 32, f),
		mk("perlbench", 0.8, 48, c),
		mk("povray", 0.1, 8, f),
		mk("sjeng", 0.4, 24, c),
		mk("tonto", 0.6, 40, f),
	}
}

// rate builds an 8-copy rate-mode workload of one benchmark.
func rate(cl CoreLoad, suite Suite) Workload {
	cores := make([]CoreLoad, 8)
	for i := range cores {
		cores[i] = cl
	}
	return Workload{Name: cl.Name, Suite: suite, Cores: cores}
}

// Rate16 returns the 16 SPEC rate-mode workloads in table order.
func Rate16() []Workload {
	t := specTable()
	out := make([]Workload, 0, len(rateOrder))
	for _, name := range rateOrder {
		out = append(out, rate(t[name], SuiteRate))
	}
	return out
}

// Mixes returns the 4 mixed workloads: fixed random draws of 8 of the 16
// SPEC benchmarks (Section 3.2).
func Mixes() []Workload {
	t := specTable()
	defs := map[string][]string{
		"mix1": {"mcf", "gcc", "lbm", "xalanc", "soplex", "astar", "libq", "wrf"},
		"mix2": {"milc", "omnetpp", "Gems", "bzip2", "leslie3d", "zeusmp", "sphinx", "cactus"},
		"mix3": {"mcf", "libq", "omnetpp", "sphinx", "gcc", "Gems", "astar", "bzip2"},
		"mix4": {"soplex", "lbm", "leslie3d", "xalanc", "milc", "wrf", "zeusmp", "cactus"},
	}
	names := []string{"mix1", "mix2", "mix3", "mix4"}
	out := make([]Workload, 0, 4)
	for _, name := range names {
		cores := make([]CoreLoad, 8)
		for i, bench := range defs[name] {
			cores[i] = t[bench]
		}
		out = append(out, Workload{Name: name, Suite: SuiteMix, Cores: cores})
	}
	return out
}

// GAP6 returns the 6 graph workloads in table order.
func GAP6() []Workload {
	out := make([]Workload, 0, 6)
	for _, cl := range gapTable() {
		out = append(out, rate(cl, SuiteGAP))
	}
	return out
}

// All26 returns the paper's full evaluation set in presentation order:
// 16 SPEC rate + 4 mixes + 6 GAP.
func All26() []Workload {
	out := Rate16()
	out = append(out, Mixes()...)
	out = append(out, GAP6()...)
	return out
}

// LowMPKI13 returns the non-memory-intensive set of Figure 13.
func LowMPKI13() []Workload {
	out := make([]Workload, 0, 13)
	for _, cl := range lowMPKITable() {
		out = append(out, rate(cl, SuiteLowMPKI))
	}
	return out
}

// catalog indexes every cataloged workload by name, built on first use.
// ByName hands out copies, so these values are never shared with a
// caller.
var catalog = sync.OnceValue(func() map[string]Workload {
	idx := make(map[string]Workload)
	for _, w := range append(All26(), LowMPKI13()...) {
		idx[w.Name] = w
	}
	return idx
})

// ByName looks up any cataloged workload. The result is the caller's
// own: its Cores slice is a fresh copy, so changing it changes no later
// lookup.
func ByName(name string) (Workload, error) {
	w, ok := catalog()[name]
	if !ok {
		return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
	}
	w.Cores = slices.Clone(w.Cores)
	return w, nil
}

// Names lists all workload names (evaluation set then low-MPKI set).
func Names() []string {
	var out []string
	for _, w := range All26() {
		out = append(out, w.Name)
	}
	for _, w := range LowMPKI13() {
		out = append(out, w.Name)
	}
	return out
}
