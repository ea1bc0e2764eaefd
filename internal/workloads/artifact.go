package workloads

import (
	"sync/atomic"

	"dice/internal/data"
	"dice/internal/graph"
	"dice/internal/parallel"
	"dice/internal/trace"
)

// Artifacts is the build product of one (workload, scaleShift) pair:
// sized graphs, recorded kernel request traces, the synthetic
// generator/data parameters of every core, and the compressed-size
// tables of their data images (sizes.go). Everything reachable from an
// Artifacts value but the size tables is read-only after construction —
// graph workspaces and replay traces are shared by reference across any
// number of concurrent simulations, while the stateful parts of a run
// (trace generator positions, RNG streams) are created fresh by
// Instantiate. The size tables only ever gain entries, each the value
// the compressor gives, so a run reads the same sizes whichever runs
// filled them. That is what lets the process-wide cache hand one build
// to the whole experiment matrix without perturbing a single result.
type Artifacts struct {
	name       string
	scaleShift uint
	cores      []coreArtifact
}

// coreArtifact captures one core's share of the build. Exactly one of
// gap (shared graph trace) or synth-config fields is meaningful.
type coreArtifact struct {
	name           string
	mpki           float64
	footprintLines uint64

	// GAP cores: the built graph workspace and its recorded request
	// trace, shared read-only across every instantiation.
	gap *builtGAP

	// Synthetic cores: the generator configuration (including seed) and
	// the data-image parameters. Generators and Synth values are rebuilt
	// per instantiation — both are O(1) — so no run-local state leaks
	// between concurrent simulations.
	synthCfg trace.SynthConfig
	dataSeed uint64
	profile  data.Profile
	// sizes is the synthetic core's size table (a GAP core uses its
	// builtGAP's instead).
	sizes sizeTable
}

// Instantiate materializes runnable per-core instances around the shared
// artifacts: fresh replay/synthetic generators (stateful), fresh data
// synthesizers (cheap), shared graph workspaces and request slices
// (immutable). It is safe to call concurrently from any number of
// goroutines and each call returns fully independent generator state, so
// simulations built from one Artifacts value are byte-identical to ones
// built cold.
func (a *Artifacts) Instantiate() []Instance {
	out := make([]Instance, len(a.cores))
	for i := range a.cores {
		c := &a.cores[i]
		if c.gap != nil {
			out[i] = Instance{
				Name: c.name, MPKI: c.mpki,
				FootprintLines: c.footprintLines,
				Gen:            trace.NewReplay(c.gap.reqs),
				Fill:           c.gap.ws.FillLine,
				sizes:          &c.gap.sizes,
			}
			continue
		}
		synth := data.NewSynth(c.dataSeed, c.profile)
		out[i] = Instance{
			Name: c.name, MPKI: c.mpki,
			FootprintLines: c.footprintLines,
			Gen:            trace.NewSynthetic(c.synthCfg),
			Fill:           synth.FillLine,
			sizes:          &c.sizes,
		}
	}
	return out
}

// buildArtifacts does the expensive, one-time construction work for a
// workload at 1/2^scaleShift of full scale: graph generation and kernel
// trace recording for GAP cores (cached per (kernel, input) within the
// workload, as rate mode runs identical copies), synthetic parameter
// derivation for SPEC cores.
func (w Workload) buildArtifacts(scaleShift uint) *Artifacts {
	a := &Artifacts{name: w.Name, scaleShift: scaleShift,
		cores: make([]coreArtifact, len(w.Cores))}
	type gapKey struct {
		k     graph.Kernel
		input gapInput
	}
	gapCache := map[gapKey]*builtGAP{}
	for i, cl := range w.Cores {
		seed := uint64(0xD1CE)<<32 ^ hashName(cl.Name) ^ uint64(i)*0x9E3779B97F4A7C15
		if cl.kernel != nil {
			key := gapKey{cl.kernel.k, cl.kernel.input}
			bg, ok := gapCache[key]
			if !ok {
				bg = buildGAP(cl, scaleShift)
				gapCache[key] = bg
			}
			a.cores[i] = coreArtifact{
				name: cl.Name, mpki: cl.MPKI,
				footprintLines: bg.footprintLines,
				gap:            bg,
			}
			continue
		}
		fp := cl.FootprintBytes >> scaleShift / 64
		if fp < 1024 {
			fp = 1024
		}
		hot := uint64(float64(float64(fp) * cl.pat.hotFrac)) // rounded: never fused into the conversion
		if hot < 64 {
			hot = 64
		}
		a.cores[i] = coreArtifact{
			name: cl.Name, mpki: cl.MPKI,
			footprintLines: fp,
			synthCfg: trace.SynthConfig{
				FootprintLines: fp,
				SeqWeight:      cl.pat.seq, SeqRunLen: cl.pat.seqRun,
				StrideWeight: cl.pat.stride, StrideLines: cl.pat.strideLines,
				RandWeight: cl.pat.rand,
				HotWeight:  cl.pat.hot, HotLines: hot,
				WriteFrac: cl.pat.writeFrac,
				Seed:      seed,
			},
			dataSeed: seed ^ 0xDA7A,
			profile:  cl.profile,
		}
	}
	return a
}

// artifactKey identifies one cache entry. Workload names are unique
// within the catalog; callers constructing ad-hoc Workload values must
// give them names the catalog does not use, or the cataloged build will
// shadow theirs (and theirs the catalog's).
type artifactKey struct {
	name       string
	scaleShift uint
}

var (
	// cache holds one build per key, built once per process
	// (singleflight): concurrent callers for a key block until its one
	// builder finishes, and a panicking build re-panics in every waiter.
	cache parallel.Memo[artifactKey, *Artifacts]

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
)

// CacheStats returns the artifact cache's lifetime hit and miss
// counters. A miss is a cold build performed (and stored) by this
// process; a hit is a Build or Warm served from an existing entry,
// including waits on a build already in flight. See METRICS.md.
func CacheStats() (hits, misses uint64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// ResetCacheStats zeroes the hit/miss counters (entries are kept).
func ResetCacheStats() {
	cacheHits.Store(0)
	cacheMisses.Store(0)
}

// DropCache discards every cached artifact, size tables included, and
// zeroes the counters (CacheStats and SizeTableStats), so the next
// Build of each key is a cold build (a cache miss runs exactly the
// construction an uncached build would) with empty tables. Tests and
// benchmarks use it to measure or compare cold builds; production code
// never needs it (artifacts are bounded by catalog size x distinct
// scales).
func DropCache() {
	cache.Reset()
	ResetCacheStats()
	tableSized.Store(0)
	tableBytes.Store(0)
}

// cachedArtifacts returns the shared build for (w.Name, scaleShift),
// constructing it exactly once per process.
func cachedArtifacts(w Workload, scaleShift uint) *Artifacts {
	a, built := cache.Do(artifactKey{w.Name, scaleShift}, func() *Artifacts {
		cacheMisses.Add(1)
		return w.buildArtifacts(scaleShift)
	})
	if !built {
		cacheHits.Add(1)
	}
	return a
}

// Warm ensures the artifacts for (w, scaleShift) are built and cached,
// blocking until they are. Experiment runners call it for each distinct
// workload before fanning out the config matrix, so workers never
// duplicate a graph build racing on a cold cache.
func (w Workload) Warm(scaleShift uint) {
	cachedArtifacts(w, scaleShift)
}

// Build instantiates the workload's cores at 1/2^scaleShift of full
// scale. GAP workloads build their graph and kernel trace once and share
// it across cores (rate mode runs identical copies). The expensive
// build products are further shared process-wide, through the artifact
// cache, across every Build of the same (name, scaleShift) — each call
// still returns fresh, independent generator state, so a cached build's
// results are byte-identical to a cold one's.
func (w Workload) Build(scaleShift uint) []Instance {
	return cachedArtifacts(w, scaleShift).Instantiate()
}
