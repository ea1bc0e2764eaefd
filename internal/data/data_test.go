package data

import (
	"bytes"
	"testing"
	"testing/quick"

	"dice/internal/compress"
)

func TestProfileValidate(t *testing.T) {
	if err := HighlyCompressible().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Incompressible().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Profile{
		{},
		{Weights: [KindCount]float64{KindZero: -1, KindRep: 2}, PageCoherence: 0.5},
		func() Profile { p := Uniform(KindZero); p.PageCoherence = 1.5; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad profile %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewSynth(7, HighlyCompressible())
	b := NewSynth(7, HighlyCompressible())
	for line := uint64(0); line < 500; line++ {
		if !bytes.Equal(lineOf(a, line), lineOf(b, line)) {
			t.Fatalf("line %d not deterministic", line)
		}
	}
	c := NewSynth(8, HighlyCompressible())
	same := 0
	for line := uint64(0); line < 500; line++ {
		if bytes.Equal(lineOf(a, line), lineOf(c, line)) {
			same++
		}
	}
	// Different seeds share only the all-zero lines.
	if same > 200 {
		t.Fatalf("different seeds produced %d/500 identical lines", same)
	}
}

func TestKindSizes(t *testing.T) {
	// Each kind must land in its characteristic compressed-size band.
	bands := map[Kind][2]int{
		KindZero:     {0, 0},
		KindRep:      {8, 8},
		KindPtr64:    {16, 24},
		KindPtr32:    {20, 36},
		KindSmallInt: {6, 28},
		KindHalfword: {24, 40},
		KindFloat:    {64, 64},
		KindRandom:   {64, 64},
	}
	for kind, band := range bands {
		p := Uniform(kind)
		s := NewSynth(11, p)
		for line := uint64(0); line < 200; line++ {
			sz := compress.CompressedSize(lineOf(s, line))
			if sz < band[0] || sz > band[1] {
				t.Fatalf("kind %v line %d size %d outside [%d,%d]",
					kind, line, sz, band[0], band[1])
			}
		}
	}
}

func TestPtr32PairsShareBase(t *testing.T) {
	s := NewSynth(13, Uniform(KindPtr32))
	shared := 0
	for line := uint64(0); line < 400; line += 2 {
		ps := compress.PairSize(lineOf(s, line), lineOf(s, line+1))
		if ps <= 68 {
			shared++
		}
	}
	if shared < 150 {
		t.Fatalf("only %d/200 ptr32 pairs fit 68B; base sharing broken", shared)
	}
}

func TestPageCoherence(t *testing.T) {
	p := HighlyCompressible()
	p.PageCoherence = 1.0
	s := NewSynth(17, p)
	// With full coherence, every line in a page has the page's kind.
	for page := uint64(0); page < 50; page++ {
		k0 := s.KindOf(page * 64)
		for off := uint64(1); off < 64; off++ {
			if s.KindOf(page*64+off) != k0 {
				t.Fatalf("page %d line %d broke full coherence", page, off)
			}
		}
	}
	// With zero coherence, pages mix kinds.
	p.PageCoherence = 0
	s0 := NewSynth(17, p)
	mixed := 0
	for page := uint64(0); page < 50; page++ {
		k0 := s0.KindOf(page * 64)
		for off := uint64(1); off < 64; off++ {
			if s0.KindOf(page*64+off) != k0 {
				mixed++
				break
			}
		}
	}
	if mixed < 40 {
		t.Fatalf("only %d/50 pages mixed with zero coherence", mixed)
	}
}

func TestProfileCompressibilityOrdering(t *testing.T) {
	frac36 := func(p Profile) float64 {
		s := NewSynth(23, p)
		n := 0
		for line := uint64(0); line < 2000; line++ {
			if compress.CompressedSize(lineOf(s, line)) <= 36 {
				n++
			}
		}
		return float64(n) / 2000
	}
	hi := frac36(HighlyCompressible())
	lo := frac36(Incompressible())
	if hi < 0.6 {
		t.Fatalf("HighlyCompressible frac<=36 = %v, want > 0.6", hi)
	}
	if lo > 0.1 {
		t.Fatalf("Incompressible frac<=36 = %v, want < 0.1", lo)
	}
}

func TestWeightsDistributionRoughlyHonored(t *testing.T) {
	var p Profile
	p.Weights[KindZero] = 0.5
	p.Weights[KindRandom] = 0.5
	p.PageCoherence = 0 // independent draws
	s := NewSynth(29, p)
	zero := 0
	const n = 4000
	for line := uint64(0); line < n; line++ {
		if s.KindOf(line) == KindZero {
			zero++
		}
	}
	if zero < n*4/10 || zero > n*6/10 {
		t.Fatalf("zero kind frequency %d/%d far from 50%%", zero, n)
	}
}

// TestFillLineMatchesLine checks FillLine writes every byte of a line:
// filling a dirty, reused buffer gives the same bytes as filling a
// fresh one.
func TestFillLineMatchesLine(t *testing.T) {
	s := NewSynth(31, HighlyCompressible())
	buf := make([]byte, LineSize)
	for line := uint64(0); line < 300; line++ {
		for i := range buf {
			buf[i] = 0xA5
		}
		s.FillLine(line, buf)
		if !bytes.Equal(buf, lineOf(s, line)) {
			t.Fatalf("FillLine mismatch at %d", line)
		}
	}
}

func TestFillLineBadBufferPanics(t *testing.T) {
	s := NewSynth(1, Uniform(KindZero))
	defer func() {
		if recover() == nil {
			t.Fatal("short buffer accepted")
		}
	}()
	s.FillLine(0, make([]byte, 8))
}

func TestKindString(t *testing.T) {
	if KindZero.String() != "zero" || KindRandom.String() != "random" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind name wrong")
	}
}

// Property: lines are always 64 bytes, deterministic, and compressed
// sizes are within [0, 64].
func TestQuickLineInvariants(t *testing.T) {
	s := NewSynth(37, HighlyCompressible())
	f := func(line uint64) bool {
		l := lineOf(s, line)
		if len(l) != LineSize || !bytes.Equal(l, lineOf(s, line)) {
			return false
		}
		sz := compress.CompressedSize(l)
		return sz >= 0 && sz <= LineSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFillLine(b *testing.B) {
	s := NewSynth(41, HighlyCompressible())
	buf := make([]byte, LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FillLine(uint64(i), buf)
	}
}

// lineOf returns line's bytes from s in a fresh buffer.
func lineOf(s *Synth, line uint64) []byte {
	buf := make([]byte, LineSize)
	s.FillLine(line, buf)
	return buf
}
