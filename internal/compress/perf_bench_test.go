package compress

import (
	"testing"

	"dice/internal/data"
)

// benchCorpus builds a deterministic stream of profiled lines covering
// the compressibility spectrum the workload catalog exercises: zeros,
// repeats, pointers, small ints, halfwords, floats and noise.
func benchCorpus(n int) [][]byte {
	var p data.Profile
	for k := data.Kind(0); k < data.KindCount; k++ {
		p.Weights[k] = 1
	}
	p.PageCoherence = 0.9
	s := data.NewSynth(0xD1CE, p)
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = make([]byte, LineSize)
		s.FillLine(uint64(i), lines[i])
	}
	return lines
}

// BenchmarkSizeSingle measures the hybrid single-line sizing path the
// DRAM cache calls on every memoization miss (ns/ref, allocs/ref).
func BenchmarkSizeSingle(b *testing.B) {
	lines := benchCorpus(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompressedSize(lines[i%len(lines)])
	}
}

// BenchmarkSizePair measures the adjacent-pair sizing path (tag and
// base sharing) the cache calls when buddies co-reside in a set.
func BenchmarkSizePair(b *testing.B) {
	lines := benchCorpus(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i * 2) % (len(lines) - 1)
		PairSize(lines[j], lines[j+1])
	}
}

// BenchmarkSizeWithFPC measures single-algorithm sizing used by the
// compression-algorithm ablation.
func BenchmarkSizeWithFPC(b *testing.B) {
	lines := benchCorpus(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SizeWith(AlgFPC, lines[i%len(lines)])
	}
}

// BenchmarkSizeWithBDI measures single-algorithm BDI sizing.
func BenchmarkSizeWithBDI(b *testing.B) {
	lines := benchCorpus(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SizeWith(AlgBDI, lines[i%len(lines)])
	}
}
