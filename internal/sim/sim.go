// Package sim assembles the full system of Table 2 and executes
// workloads on it: eight cores (modeled at the memory system's level of
// detail — an issue-rate gap between references plus a memory-level-
// parallelism window), a shared L3, the L4 DRAM cache in any of the
// paper's configurations, and DDR main memory, with a MAP-I hit/miss
// predictor coordinating parallel main-memory fetches, first-touch
// virtual-to-physical page allocation, optional L3 prefetching (Table 7),
// and the idealized capacity/bandwidth/latency knobs the paper sweeps
// (Figure 1f, Table 8).
package sim

import (
	"fmt"

	"dice/internal/cache"
	"dice/internal/dcache"
	"dice/internal/dram"
	"dice/internal/energy"
	"dice/internal/fault"
	"dice/internal/obs"
	"dice/internal/workloads"
)

// PrefetchMode selects the L3 fetch-width comparison of Table 7.
type PrefetchMode uint8

// Prefetch modes.
const (
	PrefetchNone PrefetchMode = iota
	// PrefetchNextLine issues a prefetch of line+1 after each L3 demand
	// miss ("Nextline-PF").
	PrefetchNextLine
	// PrefetchWide128 fetches both halves of the 128B-aligned pair on
	// each L3 demand miss ("128B-PF": two separate 64B requests).
	PrefetchWide128
)

// Config selects one system configuration.
type Config struct {
	// Policy, Org, Threshold and CIPEntries configure the L4 (see dcache).
	Policy     dcache.Policy
	Org        dcache.Org
	Threshold  int
	CIPEntries int

	// ScaleShift scales the whole system to 1/2^shift of the paper's
	// sizes (cache capacity and workload footprints together), keeping
	// the footprint:capacity and bandwidth:capacity ratios intact.
	// Default 10 (1GB -> 1MB).
	ScaleShift uint

	// CapacityMult (1 or 2) doubles L4 sets; BWMult (1 or 2) doubles L4
	// channels; HalfLatency halves L4 DRAM timing — the idealized knobs
	// of Figure 1(f) and Table 8.
	CapacityMult int
	BWMult       int
	HalfLatency  bool

	Prefetch PrefetchMode

	// CompressAlg restricts the cache's compression algorithm for the
	// ablation of Section 7.1: "fpc", "bdi", or "" for the default
	// hybrid FPC+BDI.
	CompressAlg string

	// FaultBER is the raw bit-error rate injected into L4 demand-read
	// transfers; 0 (the default) disables fault injection entirely.
	FaultBER float64
	// FaultSeed seeds the deterministic fault stream (fault.Config.Seed).
	FaultSeed uint64
	// FaultPolicy names the ECC/recovery policy: "none", "ecc", or
	// "ecc+quarantine" (the default when empty). See fault.ParsePolicy.
	FaultPolicy string

	// MLPWindow is the per-core outstanding-reference window (models
	// out-of-order memory-level parallelism). Default 6.
	MLPWindow int
	// RefsPerCore is the measured reference count per core; 0 sizes it
	// from the workload footprint.
	RefsPerCore int
	// WarmupFrac is the fraction of additional references run before
	// measurement to warm caches. Default 0.5 (of RefsPerCore).
	WarmupFrac float64
}

// system-wide constants at full scale.
const (
	fullL4Sets  = 1 << 24 // 1GB / 64B lines, direct-mapped
	fullL3Bytes = 8 << 20 // 8MB shared L3
	l3Ways      = 16
	l3HitLat    = 30 // CPU cycles
	issueWidth  = 4  // 4-wide cores (Table 2)
	cores       = 8
)

// EffectiveScale returns the scale shift a Run with this config actually
// uses (0 defaults to 10). Callers that pre-build workload artifacts —
// the experiment runner's cache warming — must key on this, not the raw
// field, or a default-scale warm would miss.
func (c Config) EffectiveScale() uint {
	if c.ScaleShift == 0 {
		return 10
	}
	return c.ScaleShift
}

func (c *Config) setDefaults() {
	c.ScaleShift = c.EffectiveScale()
	if c.CapacityMult == 0 {
		c.CapacityMult = 1
	}
	if c.BWMult == 0 {
		c.BWMult = 1
	}
	if c.MLPWindow == 0 {
		c.MLPWindow = 6
	}
	if c.WarmupFrac == 0 {
		c.WarmupFrac = 0.5
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.ScaleShift > 18:
		return fmt.Errorf("sim: ScaleShift %d too large (cache would vanish)", c.ScaleShift)
	case c.CapacityMult < 0 || c.CapacityMult > 4:
		return fmt.Errorf("sim: CapacityMult %d out of range", c.CapacityMult)
	case c.BWMult < 0 || c.BWMult > 4:
		return fmt.Errorf("sim: BWMult %d out of range", c.BWMult)
	case c.WarmupFrac < 0 || c.WarmupFrac > 4:
		return fmt.Errorf("sim: WarmupFrac %v out of range", c.WarmupFrac)
	case c.FaultBER < 0 || c.FaultBER > fault.MaxBER:
		return fmt.Errorf("sim: FaultBER %v out of range [0, %v]", c.FaultBER, fault.MaxBER)
	}
	switch c.CompressAlg {
	case "", "fpc", "bdi":
	default:
		return fmt.Errorf("sim: unknown CompressAlg %q (want fpc, bdi or empty)", c.CompressAlg)
	}
	if _, err := fault.ParsePolicy(c.FaultPolicy); err != nil {
		return fmt.Errorf("sim: %v", err)
	}
	return nil
}

// Result reports one run.
type Result struct {
	Workload string
	Config   Config

	// IPC per core over the measured window; the weighted-speedup inputs.
	IPC []float64
	// Cycles is the measured-window length (max core finish - warm start).
	Cycles uint64

	L3  cache.Stats
	L4  dcache.Stats
	HBM dram.Stats
	DDR dram.Stats

	Energy         energy.Breakdown
	CIPAccuracy    float64
	CIPPredictions uint64
	MAPIAccuracy   float64
	// Fault reports injected/corrected/detected/silent fault activity over
	// the measured window (all zero when fault injection is off);
	// QuarantinedSets is the number of L4 sets quarantined to uncompressed
	// storage by the end of the run.
	Fault           fault.Stats
	QuarantinedSets int
	// EffCapacity is the average L4 effective-capacity multiplier sampled
	// over the measured window (Table 5).
	EffCapacity float64
}

// Speedup returns the weighted speedup of test over base: the mean of
// per-core IPC ratios (rate mode reduces to the IPC ratio; mixes weight
// each benchmark equally), as the paper normalizes Figures 7/10/12/15.
func Speedup(base, test Result) float64 {
	if len(base.IPC) != len(test.IPC) || len(base.IPC) == 0 {
		return 0
	}
	sum := 0.0
	for i := range base.IPC {
		if base.IPC[i] > 0 {
			sum += test.IPC[i] / base.IPC[i]
		}
	}
	return sum / float64(len(base.IPC))
}

// core tracks one core's execution state.
type core struct {
	idx         int
	inst        workloads.Instance
	clock       uint64
	gapCycles   uint64
	outstanding []uint64 // completion times, ascending
	refsDone    int
	refsTarget  int
}

// machine is the assembled system.
type machine struct {
	cfg   Config
	l3    *cache.Cache
	l4    *dcache.Cache
	hbm   *dram.Memory
	ddr   *dram.Memory
	mapi  *dcache.MAPI
	insts []workloads.Instance

	// First-touch page translation. Each core's table maps its virtual
	// page number directly to physical page + 1 (0 = unallocated) — a
	// two-level slice lookup on the per-reference hot path, replacing the
	// former global map keyed by core-tagged virtual page. Tables grow on
	// demand; footprints bound the virtual page space per core.
	pageTables [cores][]uint64
	revMap     []vpageRef // physical page -> owner
	nextPP     uint64
}

type vpageRef struct {
	inst  int
	vpage uint64
}

// translate maps a core's virtual line to a physical line, allocating
// the page on first touch. Allocation order (and therefore every
// physical address) is identical to the former map-based translation:
// physical pages are handed out in global first-touch order.
func (m *machine) translate(coreIdx int, vline uint64) uint64 {
	vpage := vline >> 6
	pt := m.pageTables[coreIdx]
	if vpage >= uint64(len(pt)) {
		grown := make([]uint64, vpage+vpage/2+64)
		copy(grown, pt)
		m.pageTables[coreIdx] = grown
		pt = grown
	}
	pp := pt[vpage]
	if pp == 0 {
		m.nextPP++
		pp = m.nextPP // stored biased by one; 0 means unallocated
		pt[vpage] = pp
		m.revMap = append(m.revMap, vpageRef{inst: coreIdx, vpage: vpage})
	}
	return (pp-1)<<6 | vline&63
}

// Line implements dcache.DataSource over physical lines.
func (m *machine) Line(paLine uint64) []byte {
	pp := paLine >> 6
	if pp >= uint64(len(m.revMap)) {
		return nil // untranslated line: treat as incompressible
	}
	ref := m.revMap[pp]
	return m.insts[ref.inst].Data(ref.vpage<<6 | paLine&63)
}

// FillLine implements dcache.Filler: the allocation-free variant of Line
// used on the cache's sizing hot path.
func (m *machine) FillLine(paLine uint64, buf []byte) bool {
	pp := paLine >> 6
	if pp >= uint64(len(m.revMap)) {
		return false
	}
	ref := m.revMap[pp]
	in := &m.insts[ref.inst]
	vline := ref.vpage<<6 | paLine&63
	if in.Fill != nil {
		in.Fill(vline, buf)
		return true
	}
	copy(buf, in.Data(vline))
	return true
}

// Run executes workload w under cfg and returns the measured result. It
// returns an error (never panics) on invalid configuration, so callers
// assembling configs from flags or files get a clean failure.
func Run(cfg Config, w workloads.Workload) (Result, error) {
	return RunObserved(cfg, w, nil)
}

// RunObserved is Run with an optional observer attached: ob's recorder
// samples epoch metrics and its tracer collects component events as
// the simulation executes. Observation is strictly read-only — the
// returned Result is byte-identical to Run's for the same (cfg, w),
// with or without an observer, which the determinism tests enforce. A
// nil observer makes RunObserved exactly Run.
//
// The simulation executes on the discrete-event core. The cycle-stepped
// reference (RunReferenceObserved) produces byte-identical Results and
// epoch exports for every (cfg, w) — the differential tests enforce it.
func RunObserved(cfg Config, w workloads.Workload, ob *obs.Observer) (Result, error) {
	res, _, err := RunEventObserved(cfg, w, ob)
	return res, err
}

// step processes one reference of core c, advancing its clock.
func (m *machine) step(c *core) {
	req, ok := c.inst.Gen.Next()
	if !ok {
		// Streams are endless by construction (Looping/Synthetic); treat
		// exhaustion as a repeat of the last line.
		req.Line = 0
	}
	now := c.clock
	// MLP window: block on the oldest outstanding reference if full.
	// Retire by shifting down in place rather than re-slicing, so the
	// pre-sized backing array is reused for the whole run.
	if len(c.outstanding) >= m.cfg.MLPWindow {
		if t := c.outstanding[0]; t > now {
			now = t
		}
		n := copy(c.outstanding, c.outstanding[1:])
		c.outstanding = c.outstanding[:n]
	}

	pa := m.translate(c.idx, req.Line)
	l3HitBefore := m.l3.Contains(pa)
	done := m.accessMemSystem(now, pa, req.Write, true)

	// Stores retire through the store buffer; only loads occupy the MLP
	// window.
	if !req.Write {
		c.outstanding = insertSorted(c.outstanding, done)
	}

	// Prefetch options (Table 7) trigger on demand L3 misses only: an L3
	// hit means the spatial region is already on chip.
	if !l3HitBefore {
		switch m.cfg.Prefetch {
		case PrefetchNextLine:
			m.prefetch(now, c, req.Line+1)
		case PrefetchWide128:
			m.prefetch(now, c, req.Line^1)
		}
	}

	c.clock = now + c.gapCycles
}

// prefetch brings vline into L3 without blocking the core. Prefetches
// are low-priority traffic: when the target channel's queue is loaded the
// controller drops them rather than delaying demand requests, as hardware
// prefetchers do.
func (m *machine) prefetch(now uint64, c *core, vline uint64) {
	if vline >= c.inst.FootprintLines {
		return
	}
	pa := m.translate(c.idx, vline)
	if m.l3.Contains(pa) {
		return
	}
	loc := m.hbm.Decode(pa << 6)
	if m.hbm.InFlight(now, loc) > m.hbm.Config().QueueDepth/8 {
		return
	}
	m.accessMemSystem(now, pa, false, false)
}

// accessMemSystem walks one reference through L3 -> L4 -> DDR and returns
// its data-ready cycle. demand distinguishes demand requests (which train
// MAP-I) from prefetches.
func (m *machine) accessMemSystem(now uint64, pa uint64, write bool, demand bool) uint64 {
	if m.l3.Lookup(pa, write) {
		return now + l3HitLat
	}
	tL4 := now + l3HitLat // L3 miss determination

	// MAP-I: on a predicted miss, launch the main-memory fetch in
	// parallel with the L4 probe.
	predHit := true
	var parallelDDR uint64
	if demand {
		predHit = m.mapi.PredictHit(pa)
		if !predHit {
			parallelDDR = m.ddr.AccessAddr(tL4, pa<<6, false, 64)
		}
	}

	r := m.l4.Read(tL4, pa)
	var dataAt uint64
	if r.Hit {
		dataAt = r.Done
	} else {
		switch {
		case demand && !predHit:
			dataAt = max64(parallelDDR, tL4)
		default:
			dataAt = m.ddr.AccessAddr(r.Done, pa<<6, false, 64)
		}
		inst := m.l4.Install(dataAt, pa, false)
		m.drainVictims(inst.Done, inst.Victims)
	}
	if demand {
		m.mapi.Update(pa, predHit, r.Hit)
	}

	// Fill L3 with the demand line, plus any adjacent lines the L4
	// delivered for free (the DICE/BAI bandwidth benefit, Table 6).
	m.installL3(dataAt, pa, write)
	if r.HasExtra {
		m.installL3(dataAt, r.Extra, false)
	}
	return dataAt
}

// installL3 fills a line into L3, routing any dirty victim back to the L4
// as a writeback (whose own victims go to main memory).
func (m *machine) installL3(now uint64, pa uint64, dirty bool) {
	v, evicted := m.l3.Install(pa, dirty)
	if evicted && v.Dirty {
		res := m.l4.Writeback(now, v.Line)
		m.drainVictims(res.Done, res.Victims)
	}
}

// drainVictims writes dirty L4 victims back to main memory.
func (m *machine) drainVictims(now uint64, victims []dcache.Victim) {
	for _, v := range victims {
		if v.Dirty {
			m.ddr.AccessAddr(now, v.Line<<6, true, 64)
		}
	}
}

// insertSorted keeps the small outstanding-completion slice ascending.
func insertSorted(s []uint64, v uint64) []uint64 {
	i := len(s)
	for i > 0 && s[i-1] > v {
		i--
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
