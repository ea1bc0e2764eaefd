package fault

import (
	"math"
	"runtime"
	"testing"
)

func mustModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidates(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero BER", Config{BER: 0}, false},
		{"negative BER", Config{BER: -1e-3}, false},
		{"BER above max", Config{BER: 0.5}, false},
		{"BER at max", Config{BER: MaxBER}, true},
		{"typical", Config{BER: 1e-4, Seed: 7}, true},
		{"bad policy", Config{BER: 1e-4, Policy: Policy(9)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if (err == nil) != tc.ok {
				t.Fatalf("New(%+v) err = %v, want ok=%v", tc.cfg, err, tc.ok)
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyECCQuarantine, true},
		{"ecc+quarantine", PolicyECCQuarantine, true},
		{"quarantine", PolicyECCQuarantine, true},
		{"ecc", PolicyECC, true},
		{"none", PolicyNone, true},
		{"secded", 0, false},
		{"ECC", 0, false},
	}
	for _, tc := range cases {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok {
			t.Fatalf("ParsePolicy(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, p := range []Policy{PolicyNone, PolicyECC, PolicyECCQuarantine} {
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip %v -> %q -> %v (%v)", p, p.String(), back, err)
		}
	}
}

// TestDeterminism: two models with the same (seed, BER) produce the
// identical outcome sequence; a different seed diverges.
func TestDeterminism(t *testing.T) {
	const frames = 20_000
	cfg := Config{BER: 2e-3, Seed: 42, Policy: PolicyECC}
	a, b := mustModel(t, cfg), mustModel(t, cfg)
	diverged := false
	other := mustModel(t, Config{BER: 2e-3, Seed: 43, Policy: PolicyECC})
	for i := 0; i < frames; i++ {
		oa, ob := a.ReadFrame(80), b.ReadFrame(80)
		if oa != ob {
			t.Fatalf("frame %d: same seed diverged (%v vs %v)", i, oa, ob)
		}
		if oa != other.ReadFrame(80) {
			diverged = true
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("same-seed stats differ:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	if !diverged {
		t.Fatal("different seeds produced an identical outcome sequence")
	}
}

// TestOutcomeDistribution: at a BER high enough to see every class, the
// frequencies follow single >> double >> triple, and the worst-word
// frame classification matches the word counters.
func TestOutcomeDistribution(t *testing.T) {
	m := mustModel(t, Config{BER: 3e-3, Seed: 1, Policy: PolicyECCQuarantine})
	var clean, corrected, detected, silent int
	const frames = 300_000
	for i := 0; i < frames; i++ {
		switch m.ReadFrame(80) {
		case Clean:
			clean++
		case Corrected:
			corrected++
		case Detected:
			detected++
		case Silent:
			silent++
		}
	}
	s := m.Stats()
	if s.Frames != frames {
		t.Fatalf("frames = %d, want %d", s.Frames, frames)
	}
	if s.Words != frames*10 {
		t.Fatalf("words = %d, want %d (80B frames)", s.Words, frames*10)
	}
	if clean == 0 || corrected == 0 || detected == 0 {
		t.Fatalf("distribution degenerate: clean=%d corrected=%d detected=%d silent=%d",
			clean, corrected, detected, silent)
	}
	if !(corrected > detected && detected > silent) {
		t.Fatalf("severity ordering violated: corrected=%d detected=%d silent=%d",
			corrected, detected, silent)
	}
	if s.Flipped < s.Corrected+2*s.Detected {
		t.Fatalf("flip count %d below implied minimum", s.Flipped)
	}
}

// TestHigherBERFaultsMore: the injected-fault rate is monotone in BER.
func TestHigherBERFaultsMore(t *testing.T) {
	rate := func(ber float64) uint64 {
		m := mustModel(t, Config{BER: ber, Seed: 9, Policy: PolicyECC})
		for i := 0; i < 50_000; i++ {
			m.ReadFrame(80)
		}
		return m.Stats().Flipped
	}
	lo, hi := rate(1e-4), rate(3e-3)
	if hi <= lo {
		t.Fatalf("flips(3e-3)=%d not above flips(1e-4)=%d", hi, lo)
	}
}

// TestPolicyNoneIsAllSilent: with no ECC every faulty word is silent
// corruption — nothing is corrected or detected.
func TestPolicyNoneIsAllSilent(t *testing.T) {
	m := mustModel(t, Config{BER: 5e-3, Seed: 3, Policy: PolicyNone})
	sawSilent := false
	for i := 0; i < 50_000; i++ {
		switch m.ReadFrame(72) {
		case Silent:
			sawSilent = true
		case Corrected, Detected:
			t.Fatal("PolicyNone produced an ECC outcome")
		}
	}
	if !sawSilent {
		t.Fatal("no silent corruption at BER 5e-3")
	}
	s := m.Stats()
	if s.Corrected != 0 || s.Detected != 0 {
		t.Fatalf("PolicyNone counted ECC events: %+v", s)
	}
	if s.Silent == 0 {
		t.Fatal("PolicyNone counted no silent words")
	}
}

// TestResetStatsKeepsStream: resetting counters must not rewind the draw
// sequence (warmup and measurement share one fault stream).
func TestResetStatsKeepsStream(t *testing.T) {
	cfg := Config{BER: 2e-3, Seed: 11, Policy: PolicyECC}
	ref := mustModel(t, cfg)
	var refSeq []Outcome
	for i := 0; i < 2_000; i++ {
		refSeq = append(refSeq, ref.ReadFrame(80))
	}

	m := mustModel(t, cfg)
	for i := 0; i < 1_000; i++ {
		if got := m.ReadFrame(80); got != refSeq[i] {
			t.Fatalf("frame %d diverged before reset", i)
		}
	}
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Fatal("ResetStats left counters")
	}
	for i := 1_000; i < 2_000; i++ {
		if got := m.ReadFrame(80); got != refSeq[i] {
			t.Fatalf("frame %d diverged after reset (stream rewound?)", i)
		}
	}
}

// TestTickCountsDraws pins the Tick accessor's contract: one tick per
// 8-byte word drawn, monotone, untouched by ResetStats, and equal ticks
// on equal-seed models imply identical future outcomes (the stream-
// alignment property the sim differential tests assert through it).
func TestTickCountsDraws(t *testing.T) {
	cfg := Config{BER: 2e-3, Seed: 9, Policy: PolicyECC}
	m := mustModel(t, cfg)
	if m.Tick() != 0 {
		t.Fatalf("fresh model tick = %d, want 0", m.Tick())
	}
	m.ReadFrame(80) // 10 words
	if m.Tick() != 10 {
		t.Fatalf("after one 80B frame tick = %d, want 10", m.Tick())
	}
	m.ReadFrame(72) // 9 words
	if m.Tick() != 19 {
		t.Fatalf("after 80B+72B frames tick = %d, want 19", m.Tick())
	}
	m.ResetStats()
	if m.Tick() != 19 {
		t.Fatalf("ResetStats moved tick to %d, want 19 (stream must not rewind)", m.Tick())
	}

	// Equal seed + equal tick => identical continuations.
	other := mustModel(t, cfg)
	other.ReadFrame(80)
	other.ReadFrame(72)
	if other.Tick() != m.Tick() {
		t.Fatalf("tick mismatch: %d vs %d", other.Tick(), m.Tick())
	}
	for i := 0; i < 1_000; i++ {
		if a, b := m.ReadFrame(80), other.ReadFrame(80); a != b {
			t.Fatalf("frame %d: aligned ticks diverged (%v vs %v)", i, a, b)
		}
	}
}

// TestPowNMatchesPow pins powN to math.Pow's portable Go, bit for bit,
// at the flip-probability exponents New uses (72-bit SECDED words, 64
// unprotected bits, and each less one and two) over the BERs the
// catalog runs and a log sweep of the valid range. On s390x math.Pow is
// assembly, which is the reason powN exists, so there is nothing to
// pin it to.
func TestPowNMatchesPow(t *testing.T) {
	if runtime.GOARCH == "s390x" {
		t.Skip("math.Pow is assembly on s390x")
	}
	bers := []float64{3e-4, 3e-3, MaxBER}
	for ber := 1e-12; ber < MaxBER; ber *= 1.01 {
		bers = append(bers, ber)
	}
	for _, ber := range bers {
		for _, n := range []int{62, 63, 64, 70, 71, 72} {
			if got, want := powN(1-ber, n), math.Pow(1-ber, float64(n)); got != want {
				t.Fatalf("powN(1-%g, %d) = %v, math.Pow = %v", ber, n, got, want)
			}
		}
	}
}
