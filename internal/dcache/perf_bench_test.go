package dcache

import (
	"testing"

	"dice/internal/compress"
	"dice/internal/data"
	"dice/internal/dram"
)

// synthSource adapts a data.Synth to the cache's Sizer, the same
// role the simulator's machine plays.
type synthSource struct{ s *data.Synth }

func (ss *synthSource) FillLine(line uint64, buf []byte) bool {
	ss.s.FillLine(line, buf)
	return true
}

func (ss *synthSource) Size(alg compress.AlgID, line uint64) int {
	return fillSize(ss.FillLine, alg, line)
}

func (ss *synthSource) PairSize(alg compress.AlgID, evenLine uint64) int {
	return fillPairSize(ss.FillLine, alg, evenLine)
}

// mixedSynth is the mixed-compressibility synthetic corpus: every data
// kind weighted equally, so it spans the whole compressibility
// spectrum the workload catalog exercises.
func mixedSynth() *data.Synth {
	var p data.Profile
	for k := data.Kind(0); k < data.KindCount; k++ {
		p.Weights[k] = 1
	}
	p.PageCoherence = 0.9
	return data.NewSynth(0xD1CE, p)
}

// newBenchCache assembles a DICE cache over a mixed-compressibility
// synthetic data source, mirroring the sim's L4 wiring.
func newBenchCache() *Cache {
	return New(Config{
		Sets:   1 << 13,
		Policy: PolicyDICE,
		Mem:    dram.New(dram.HBMConfig()),
		Sizes:  &synthSource{s: mixedSynth()},
	})
}

// benchLine is a deterministic address stream with spatial locality:
// runs of sequential lines interleaved with jumps, over a footprint
// about 4x the cache's line capacity so misses and evictions are
// steady-state.
func benchLine(i int) uint64 {
	h := uint64(i) * 0x9E3779B97F4A7C15
	run := uint64(i) & 7
	return (h>>40)%(1<<15)*8 + run
}

// BenchmarkReadInstall measures the cache's demand path per reference:
// probe, and on a miss the policy decision, compression sizing, install
// and repack (ns/ref, allocs/ref).
func BenchmarkReadInstall(b *testing.B) {
	c := newBenchCache()
	now := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := benchLine(i)
		r := c.Read(now, line)
		if !r.Hit {
			c.Install(r.Done, line, false)
		}
		now += 12
	}
}

// BenchmarkNewRelease measures a tiny simulation's DRAM-cache set-up:
// New on a 16384-set DICE cache, 64 installs and Release. Its B/op is
// the set-up allocation a sweep cell pays.
func BenchmarkNewRelease(b *testing.B) {
	cfg := Config{
		Sets:   1 << 14,
		Policy: PolicyDICE,
		Mem:    dram.New(dram.HBMConfig()),
		Sizes:  &synthSource{s: mixedSynth()},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New(cfg)
		for j := 0; j < 64; j++ {
			c.Install(0, benchLine(j), false)
		}
		c.Release()
	}
}
