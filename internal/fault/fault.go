// Package fault models stacked-DRAM reliability for the compressed DRAM
// cache: a seeded, deterministic bit-error injector applied to frame
// reads, plus a per-word SECDED ECC model (single-error correct,
// double-error detect). Compression amplifies faults — one flipped
// payload bit corrupts many decompressed bytes, and a flipped metadata
// bit mis-indexes a whole lookup — so the cache layer consumes these
// outcomes to degrade gracefully (refetch from main memory, flush the
// untrusted frame, quarantine repeat offenders) instead of trusting
// corrupt frames or crashing.
//
// Determinism: every outcome is a pure function of (seed, draw index).
// Each simulation owns one Model and consults it from the simulator's
// single goroutine, so a run's fault sequence is byte-reproducible at
// any experiment-pool worker count.
package fault

import (
	"fmt"
	"math"
)

// Policy selects the protection and degradation scheme.
type Policy uint8

// Protection policies.
const (
	// PolicyNone stores frames unprotected: every flipped bit reaches the
	// consumer undetected by the device (a per-line checksum downstream
	// may still catch it).
	PolicyNone Policy = iota
	// PolicyECC protects each 8-byte word with SECDED (72,64): single-bit
	// errors are corrected, double-bit errors are detected-uncorrectable
	// and the frame is refetched from main memory.
	PolicyECC
	// PolicyECCQuarantine is PolicyECC plus set quarantine: a frame that
	// takes QuarantineAfter detected-uncorrectable faults falls back to
	// uncompressed single-line storage, bounding the blast radius of its
	// next fault to one line instead of a whole compressed set.
	PolicyECCQuarantine
)

// String names the policy with the same spelling ParsePolicy accepts.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyECC:
		return "ecc"
	case PolicyECCQuarantine:
		return "ecc+quarantine"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy resolves a CLI policy name. The empty string selects the
// default, PolicyECCQuarantine.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "ecc+quarantine", "quarantine":
		return PolicyECCQuarantine, nil
	case "ecc":
		return PolicyECC, nil
	case "none":
		return PolicyNone, nil
	default:
		return 0, fmt.Errorf("fault: unknown policy %q (have none, ecc, ecc+quarantine)", s)
	}
}

// QuarantineAfter is the number of detected-uncorrectable faults a set
// frame absorbs before PolicyECCQuarantine demotes it to uncompressed
// storage.
const QuarantineAfter = 2

// MaxBER bounds the raw bit-error rate: beyond ~1e-1 the binomial
// per-word model stops being meaningful (every word is multi-bit faulty).
const MaxBER = 0.1

// Outcome classifies one protected frame read, worst word first.
type Outcome uint8

// Read outcomes, in increasing severity.
const (
	// Clean: no bit errors in the frame.
	Clean Outcome = iota
	// Corrected: every faulty word had a single-bit error; SECDED
	// corrected them all and the data is intact.
	Corrected
	// Silent: some word took enough flips to escape detection (three or
	// more under SECDED, any under PolicyNone) — corruption passes the
	// device unflagged.
	Silent
	// Detected: some word had a detected-uncorrectable (double-bit)
	// error. The frame cannot be trusted and must be refetched. Detected
	// dominates Silent: once the controller flags the frame, the whole
	// read is discarded regardless of other words.
	Detected
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Clean:
		return "clean"
	case Corrected:
		return "corrected"
	case Silent:
		return "silent"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Config describes one injector instance.
type Config struct {
	// BER is the raw per-bit error probability applied to each protected
	// word of a frame read. Must be in (0, MaxBER].
	BER float64
	// Seed makes the fault sequence reproducible; any value is valid.
	Seed uint64
	// Policy selects the protection scheme.
	Policy Policy
}

// Stats counts injector activity at word granularity.
type Stats struct {
	// Frames is the number of protected frame reads drawn.
	Frames uint64
	// Words is the number of protected words drawn across all frames.
	Words uint64
	// Flipped is the number of raw bit errors injected (multi-bit words
	// beyond double count as three: the model classifies, it does not
	// enumerate individual flips past the SECDED decision point).
	Flipped uint64
	// Corrected counts single-bit-faulty words fixed by SECDED.
	Corrected uint64
	// Detected counts words with detected-uncorrectable errors.
	Detected uint64
	// Silent counts words whose corruption escaped device detection.
	Silent uint64
}

// Model is one deterministic fault injector. Not safe for concurrent
// use; each simulation owns its own instance.
type Model struct {
	cfg   Config
	tick  uint64
	stats Stats

	// Cumulative per-word outcome thresholds over the uniform draw:
	// [0,p0) -> 0 flips, [p0,p1) -> 1 flip, [p1,p2) -> 2 flips,
	// [p2,1) -> 3+ flips.
	p0, p1, p2 float64
	wordBits   int
}

// New builds a Model, validating the configuration.
func New(cfg Config) (*Model, error) {
	if cfg.BER <= 0 || cfg.BER > MaxBER {
		return nil, fmt.Errorf("fault: BER %v out of range (0, %v]", cfg.BER, MaxBER)
	}
	switch cfg.Policy {
	case PolicyNone, PolicyECC, PolicyECCQuarantine:
	default:
		return nil, fmt.Errorf("fault: invalid policy %v", cfg.Policy)
	}
	m := &Model{cfg: cfg}
	// SECDED(72,64) protects 64 data bits with 8 check bits; check bits
	// fault too, so the exposure is 72 bits per word. Unprotected words
	// expose only the 64 data bits.
	m.wordBits = 72
	if cfg.Policy == PolicyNone {
		m.wordBits = 64
	}
	n, p := float64(m.wordBits), cfg.BER
	q := math.Pow(1-p, n)            // P(0 flips)
	q1 := n * p * math.Pow(1-p, n-1) // P(1 flip)
	q2 := n * (n - 1) / 2 * p * p * math.Pow(1-p, n-2)
	m.p0 = q
	m.p1 = q + q1
	m.p2 = q + q1 + q2
	return m, nil
}

// Policy returns the protection scheme.
func (m *Model) Policy() Policy { return m.cfg.Policy }

// Stats returns a copy of the accumulated counters.
func (m *Model) Stats() Stats { return m.stats }

// Tick reports how many random draws the model has consumed. The draw
// stream is a pure function of (Seed, tick), so two models with equal
// seeds and equal ticks are in identical states and will produce
// identical outcome sequences — the differential tests use this to
// prove the event-driven and cycle-stepped simulator cores consume the
// fault stream in lockstep.
func (m *Model) Tick() uint64 { return m.tick }

// ResetStats zeroes the counters; the draw sequence continues (ticks are
// not rewound, so warmup and measurement share one fault stream).
func (m *Model) ResetStats() { m.stats = Stats{} }

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix, so distinct ticks give independent-looking draws.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw returns the next uniform value in [0, 1).
func (m *Model) draw() float64 {
	m.tick++
	return float64(splitmix64(m.cfg.Seed^m.tick*0x2545F4914F6CDD1D)>>11) / (1 << 53)
}

// ReadFrame draws the fault outcome of one protected read transferring
// frameBytes, classifying each 8-byte word independently and returning
// the worst word's outcome.
func (m *Model) ReadFrame(frameBytes int) Outcome {
	m.stats.Frames++
	words := (frameBytes + 7) / 8
	out := Clean
	for w := 0; w < words; w++ {
		m.stats.Words++
		u := m.draw()
		var flips int
		switch {
		case u < m.p0:
			continue
		case u < m.p1:
			flips = 1
		case u < m.p2:
			flips = 2
		default:
			flips = 3
		}
		m.stats.Flipped += uint64(flips)
		var wordOut Outcome
		if m.cfg.Policy == PolicyNone {
			// No ECC: any corruption passes the device unflagged.
			wordOut = Silent
			m.stats.Silent++
		} else {
			switch flips {
			case 1:
				wordOut = Corrected
				m.stats.Corrected++
			case 2:
				wordOut = Detected
				m.stats.Detected++
			default:
				// Three or more flips alias into SECDED's correctable or
				// clean syndromes: miscorrection, silent corruption.
				wordOut = Silent
				m.stats.Silent++
			}
		}
		if wordOut > out {
			out = wordOut
		}
	}
	return out
}
