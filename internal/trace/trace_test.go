package trace

import (
	"testing"
	"testing/quick"
)

func baseCfg() SynthConfig {
	return SynthConfig{
		FootprintLines: 10000,
		SeqWeight:      0.5, SeqRunLen: 16,
		StrideWeight: 0.1, StrideLines: 8,
		RandWeight: 0.2,
		HotWeight:  0.2, HotLines: 500,
		WriteFrac: 0.25,
		Seed:      99,
	}
}

func TestValidate(t *testing.T) {
	if err := baseCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SynthConfig{
		{},
		func() SynthConfig { c := baseCfg(); c.FootprintLines = 0; return c }(),
		func() SynthConfig { c := baseCfg(); c.SeqWeight = -1; return c }(),
		func() SynthConfig {
			c := baseCfg()
			c.SeqWeight, c.StrideWeight, c.RandWeight, c.HotWeight = 0, 0, 0, 0
			return c
		}(),
		func() SynthConfig { c := baseCfg(); c.WriteFrac = 1.5; return c }(),
		func() SynthConfig { c := baseCfg(); c.HotLines = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	first := Generate(NewSynthetic(baseCfg()), 1000)
	second := Generate(NewSynthetic(baseCfg()), 1000)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("request %d differs across instances", i)
		}
	}
}

func TestFootprintBound(t *testing.T) {
	cfg := baseCfg()
	g := NewSynthetic(cfg)
	for _, r := range Generate(g, 20000) {
		if r.Line >= cfg.FootprintLines {
			t.Fatalf("line %d outside footprint %d", r.Line, cfg.FootprintLines)
		}
	}
}

func TestWriteFraction(t *testing.T) {
	cfg := baseCfg()
	cfg.WriteFrac = 0.3
	g := NewSynthetic(cfg)
	writes := 0
	const n = 20000
	for _, r := range Generate(g, n) {
		if r.Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("write fraction = %v, want ~0.3", frac)
	}
}

// spatialAdjacency measures the fraction of requests whose line is
// exactly the previous line + 1 — the locality BAI exploits.
func spatialAdjacency(reqs []Request) float64 {
	adj := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Line == reqs[i-1].Line+1 {
			adj++
		}
	}
	return float64(adj) / float64(len(reqs)-1)
}

func TestSequentialDominantHasHighAdjacency(t *testing.T) {
	cfg := baseCfg()
	cfg.SeqWeight, cfg.StrideWeight, cfg.RandWeight, cfg.HotWeight = 1, 0, 0, 0
	seq := spatialAdjacency(Generate(NewSynthetic(cfg), 20000))
	if seq < 0.8 {
		t.Fatalf("pure-seq adjacency = %v, want > 0.8", seq)
	}
	cfg2 := baseCfg()
	cfg2.SeqWeight, cfg2.StrideWeight, cfg2.RandWeight, cfg2.HotWeight = 0, 0, 1, 0
	rnd := spatialAdjacency(Generate(NewSynthetic(cfg2), 20000))
	if rnd > 0.01 {
		t.Fatalf("pure-random adjacency = %v, want ~0", rnd)
	}
}

func TestHotRegionConcentratesReuse(t *testing.T) {
	// Hot mode draws from a skewed distribution with a uniform hottest
	// prefix: most accesses land in a small fraction of the footprint,
	// but reuse tapers across the whole working set (no hard cutoff).
	cfg := baseCfg()
	cfg.SeqWeight, cfg.StrideWeight, cfg.RandWeight, cfg.HotWeight = 0, 0, 0, 1
	cfg.HotLines = 100
	g := NewSynthetic(cfg)
	inPrefix, inTenth := 0, 0
	const n = 5000
	for _, r := range Generate(g, n) {
		if r.Line < 100 {
			inPrefix++
		}
		if r.Line < cfg.FootprintLines/10 {
			inTenth++
		}
	}
	if inPrefix < n/3 {
		t.Fatalf("only %d/%d hot accesses in the hottest prefix", inPrefix, n)
	}
	if inTenth < n*6/10 {
		t.Fatalf("only %d/%d hot accesses in the hottest tenth", inTenth, n)
	}
	if inPrefix == n {
		t.Fatal("skewed reuse must also touch the tail")
	}
}

func TestStrideMode(t *testing.T) {
	cfg := baseCfg()
	cfg.SeqWeight, cfg.StrideWeight, cfg.RandWeight, cfg.HotWeight = 0, 1, 0, 0
	cfg.StrideLines = 4
	reqs := Generate(NewSynthetic(cfg), 1000)
	strided := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Line == reqs[i-1].Line+4 {
			strided++
		}
	}
	if float64(strided)/float64(len(reqs)) < 0.7 {
		t.Fatalf("stride-4 steps = %d/%d, want > 70%%", strided, len(reqs))
	}
}

func TestReplayLoops(t *testing.T) {
	reqs := []Request{{1, false}, {2, true}}
	got := Generate(NewReplay(reqs), 7)
	for i, r := range got {
		if r != reqs[i%2] {
			t.Fatalf("request %d = %+v, want %+v", i, r, reqs[i%2])
		}
	}
}

func TestNewReplayPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReplay(nil) did not panic")
		}
	}()
	NewReplay(nil)
}

// Property: synthetic streams always respect the footprint.
func TestQuickSyntheticBounds(t *testing.T) {
	f := func(seed uint64, fpRaw uint16) bool {
		cfg := baseCfg()
		cfg.Seed = seed
		cfg.FootprintLines = uint64(fpRaw)%50000 + 1
		if cfg.HotLines > cfg.FootprintLines {
			cfg.HotLines = cfg.FootprintLines
		}
		g := NewSynthetic(cfg)
		for i := 0; i < 200; i++ {
			if g.Next().Line >= cfg.FootprintLines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSyntheticNext(b *testing.B) {
	g := NewSynthetic(baseCfg())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
