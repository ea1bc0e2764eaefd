// Package core is the library facade for DICE: Dynamic-Indexing Cache
// comprEssion for DRAM caches (Young, Nair & Qureshi, ISCA 2017). It
// assembles the pieces in internal/{compress,dram,dcache,...} behind a
// small, documented API with the paper's defaults, for programs that want
// a compressed DRAM cache without wiring a full system simulation.
//
// The central type is Cache: a stacked-DRAM cache that compresses lines
// with hybrid FPC+BDI, dynamically chooses between Traditional Set
// Indexing and Bandwidth-Aware Indexing per line (the 36B threshold of
// Section 5.2), predicts read indices with a <1KB Cache Index Predictor,
// and charges cycle-accurate timing against an HBM-like device model.
//
//	cache := core.New(core.Config{Sets: 1 << 14})
//	res := cache.Read(now, lineAddr)
//	if !res.Hit {
//	    cache.Install(res.Done, lineAddr, false)
//	}
//
// For whole-system experiments (cores, L3, main memory, workloads) use
// the sim and experiments packages; for raw compression use compress.
package core

import (
	"fmt"

	"dice/internal/compress"
	"dice/internal/dcache"
	"dice/internal/dram"
)

// Design selects a DRAM-cache design.
type Design uint8

// Designs, in the order the paper introduces them.
const (
	// Alloy is the uncompressed direct-mapped baseline (Figure 2).
	Alloy Design = iota
	// CompressTSI compresses within traditional set indexing: capacity
	// benefits only (Section 4.4).
	CompressTSI
	// CompressBAI compresses with bandwidth-aware indexing for every
	// line (Section 4.5).
	CompressBAI
	// DICE dynamically selects BAI or TSI per line by compressibility,
	// with CIP index prediction (Section 5). The paper's proposal.
	DICE
)

// String names the design.
func (d Design) String() string {
	switch d {
	case Alloy:
		return "alloy"
	case CompressTSI:
		return "compress-tsi"
	case CompressBAI:
		return "compress-bai"
	case DICE:
		return "dice"
	default:
		return fmt.Sprintf("design(%d)", uint8(d))
	}
}

func (d Design) policy() dcache.Policy {
	switch d {
	case Alloy:
		return dcache.PolicyUncompressed
	case CompressTSI:
		return dcache.PolicyTSI
	case CompressBAI:
		return dcache.PolicyBAI
	case DICE:
		return dcache.PolicyDICE
	default:
		panic("core: unknown design " + d.String())
	}
}

// Sizer supplies the compressed size of a line and of an even-aligned
// pair, as in dcache; CompressedSize and PairSize size 64-byte line
// contents the way the paper's hybrid compressor does. Sizes must be
// deterministic per line for the lifetime of the cache.
type Sizer = dcache.Sizer

// Config configures a Cache. The zero value is not valid: Sets is
// required.
type Config struct {
	// Sets is the number of 72-byte direct-mapped set frames (a 1GB
	// cache has 1<<24; scaled experiments use 1<<14).
	Sets int
	// Design selects the cache design; the default is DICE.
	Design Design
	// KNL switches to the Knights-Landing tag organization (tags in ECC,
	// no neighbor-tag transfer; Section 6.6).
	KNL bool
	// Threshold overrides the DICE insertion threshold (default 36B).
	Threshold int
	// CIPEntries overrides the Last-Time Table size (default 2048).
	CIPEntries int
	// Sizes resolves compressed line sizes; required for every design
	// but Alloy. An unknown line sizes as incompressible (64 bytes).
	Sizes Sizer
	// DRAM overrides the stacked-DRAM timing model; the default is the
	// paper's 4-channel HBM configuration.
	DRAM *dram.Config
}

// Cache is a compressed DRAM cache.
type Cache struct {
	inner *dcache.Cache
	mem   *dram.Memory
}

// New builds a Cache with the paper's defaults. It panics on invalid
// configuration, which is a programming error (configurations are static).
func New(cfg Config) *Cache {
	dcfg := dram.HBMConfig()
	if cfg.DRAM != nil {
		dcfg = *cfg.DRAM
	}
	mem := dram.New(dcfg)
	org := dcache.OrgAlloy
	if cfg.KNL {
		org = dcache.OrgKNL
	}
	inner := dcache.New(dcache.Config{
		Sets:       cfg.Sets,
		Policy:     cfg.Design.policy(),
		Org:        org,
		Threshold:  cfg.Threshold,
		CIPEntries: cfg.CIPEntries,
		Mem:        mem,
		Sizes:      cfg.Sizes,
	})
	return &Cache{inner: inner, mem: mem}
}

// ReadResult reports one lookup; see dcache.ReadResult.
type ReadResult = dcache.ReadResult

// InstallResult reports one fill; see dcache.InstallResult.
type InstallResult = dcache.InstallResult

// Victim is a displaced line; see dcache.Victim.
type Victim = dcache.Victim

// Stats aggregates cache activity; see dcache.Stats.
type Stats = dcache.Stats

// Read looks up a 64B line at CPU cycle now. On a hit, Done is the cycle
// the data is available; when HasExtra is set, Extra is the spatially
// adjacent line the same access delivered for free. On a miss, Done is
// the cycle the miss was determined; fetch the line and call Install.
func (c *Cache) Read(now uint64, line uint64) ReadResult {
	return c.inner.Read(now, line)
}

// Install fills a line after a miss. Dirty victims must be written back
// to the next level by the caller.
func (c *Cache) Install(now uint64, line uint64, dirty bool) InstallResult {
	return c.inner.Install(now, line, dirty)
}

// Writeback delivers a dirty line from the level above (updating it in
// place on a write hit, installing it otherwise).
func (c *Cache) Writeback(now uint64, line uint64) InstallResult {
	return c.inner.Writeback(now, line)
}

// Contains reports residency without side effects.
func (c *Cache) Contains(line uint64) bool { return c.inner.Contains(line) }

// Stats returns accumulated cache statistics.
func (c *Cache) Stats() Stats { return c.inner.Stats() }

// DRAMStats returns the underlying device's activity (bandwidth, row
// locality), for performance and energy accounting.
func (c *Cache) DRAMStats() dram.Stats { return c.mem.Stats() }

// EffectiveCapacity returns resident lines per physical set — the
// compression capacity multiplier of Table 5 (1.0 for a warm Alloy).
func (c *Cache) EffectiveCapacity() float64 { return c.inner.EffectiveCapacity() }

// CIPAccuracy returns the index predictor's accuracy over scored
// predictions (Section 5.3; ~94% in the paper).
func (c *Cache) CIPAccuracy() float64 { return c.inner.CIP().Accuracy() }

// CompressedSize returns the hybrid FPC+BDI compressed size of a 64-byte
// line, the quantity DICE's insertion threshold tests.
func CompressedSize(line []byte) int { return compress.CompressedSize(line) }

// PairSize returns the compressed size of two adjacent lines packed
// together with shared tag and base (Section 4.2).
func PairSize(a, b []byte) int { return compress.PairSize(a, b) }
