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
	"dice/internal/compress"
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
	// Policy is the L4 compression and indexing policy (see dcache).
	Policy dcache.Policy
	// Org is the L4 tag organization: Alloy (the zero value) or KNL.
	Org dcache.Org
	// Threshold is the DICE BAI-insertion threshold in bytes, at most
	// dcache.MaxThreshold; 0 selects dcache.DefaultThreshold.
	Threshold int
	// CIPEntries sizes the CIP Last-Time Table: a power of two up to
	// maxCIPEntries (1<<20), or 0 for dcache.DefaultCIPEntries. The
	// table allocates one entry each, so the bound keeps a config from
	// asking for gigabytes, and the predictor hashes pages to 32 bits,
	// so it could reach no more than 1<<32 entries anyway.
	CIPEntries int

	// ScaleShift scales the whole system to 1/2^shift of the paper's
	// sizes (cache capacity and workload footprints together), keeping
	// the footprint:capacity and bandwidth:capacity ratios intact.
	// Default 10 (1GB -> 1MB).
	ScaleShift uint

	// CapacityMult multiplies the L4 set count (0 = 1, at most 4): one
	// of the idealized knobs of Figure 1(f) and Table 8.
	CapacityMult int
	// BWMult multiplies the L4 channel count (0 = 1, at most 4): the
	// bandwidth knob of Figure 1(f) and Table 8.
	BWMult int
	// HalfLatency halves the L4 DRAM timing: the latency knob of
	// Figure 1(f) and Table 8.
	HalfLatency bool

	// Prefetch selects the L3 fetch width on a demand miss (Table 7).
	Prefetch PrefetchMode

	// CompressAlg restricts the cache's compression algorithm for the
	// ablation of Section 7.1: "fpc", "bdi", or "" (or "hybrid") for the
	// default hybrid FPC+BDI. See compress.ParseAlg.
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
	// out-of-order memory-level parallelism); 0 selects DefaultMLPWindow.
	MLPWindow int
	// RefsPerCore is the measured reference count per core; 0 sizes it
	// from the workload footprint. Each core first runs warmupFrac as
	// many references again to warm the caches. Validate caps it at
	// maxRefsPerCore (1<<30), far above every catalog budget, so the
	// warm-up plus measured count cannot overflow.
	RefsPerCore int
}

// maxRefsPerCore bounds RefsPerCore. Auto sizing stops at 400,000 and
// dicebench defaults to 60,000; past the bound, warm-up plus measured
// references overflow and a run returns nonsense cycles and IPCs.
const maxRefsPerCore = 1 << 30

// DefaultMLPWindow is the per-core outstanding-reference window a zero
// Config.MLPWindow selects.
const DefaultMLPWindow = 6

// maxMLPWindow bounds the per-core outstanding-reference window. Each
// core preallocates its window, so an unbounded value is an allocation
// failure, and real cores track tens of misses, not thousands.
const maxMLPWindow = 1024

// maxCIPEntries bounds the CIP Last-Time Table. The table is allocated
// up front, so an unbounded size is a fatal allocation failure that no
// recover catches, and the catalog uses 512 to 8192 entries.
const maxCIPEntries = 1 << 20

// warmupFrac is the fraction of additional references each core runs
// before measurement to warm caches (of RefsPerCore).
const warmupFrac = 0.5

// instrPerRefMPKI sets the core's memory intensity: a core running a
// workload of published L3 MPKI m charges instrPerRefMPKI/m
// instructions per memory reference, for both its issue gaps and its
// IPC. A factor of 1000 would match the per-kilo-instruction
// definition; this one has been 1200 since the first version, which
// leaves the measured L3 MPKI below Table 3's. Every result moves with
// it: see the ROADMAP item "Table 3 intensity" before changing it.
const instrPerRefMPKI = 1200

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
		c.MLPWindow = DefaultMLPWindow
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
	case c.Threshold > dcache.MaxThreshold:
		return fmt.Errorf("sim: Threshold %d exceeds the %d-byte line", c.Threshold, dcache.MaxThreshold)
	case !(c.FaultBER >= 0 && c.FaultBER <= fault.MaxBER): // NaN fails both

		return fmt.Errorf("sim: FaultBER %v out of range [0, %v]", c.FaultBER, fault.MaxBER)
	case c.RefsPerCore < 0:
		return fmt.Errorf("sim: RefsPerCore %d is negative (measured refs per core; 0 = auto)", c.RefsPerCore)
	case c.RefsPerCore > maxRefsPerCore:
		return fmt.Errorf("sim: RefsPerCore %d exceeds %d", c.RefsPerCore, maxRefsPerCore)
	case c.MLPWindow < 0:
		return fmt.Errorf("sim: MLPWindow %d is negative (mlp window; 0 = default %d)", c.MLPWindow, DefaultMLPWindow)
	case c.MLPWindow > maxMLPWindow:
		return fmt.Errorf("sim: MLPWindow %d exceeds %d", c.MLPWindow, maxMLPWindow)
	case c.CIPEntries < 0 || c.CIPEntries&(c.CIPEntries-1) != 0:
		return fmt.Errorf("sim: CIPEntries %d is not a power of two (0 = default %d)", c.CIPEntries, dcache.DefaultCIPEntries)
	case c.CIPEntries > maxCIPEntries:
		return fmt.Errorf("sim: CIPEntries %d exceeds %d", c.CIPEntries, maxCIPEntries)
	}
	if _, err := compress.ParseAlg(c.CompressAlg); err != nil {
		return fmt.Errorf("sim: CompressAlg: %v", err)
	}
	if _, err := fault.ParsePolicy(c.FaultPolicy); err != nil {
		return fmt.Errorf("sim: %v", err)
	}
	return nil
}

// Result reports one run.
type Result struct {
	// Workload is the name of the workload that ran.
	Workload string
	// Config is the configuration that ran, with the ScaleShift,
	// CapacityMult, BWMult and MLPWindow defaults filled in.
	Config Config

	// IPC per core over the measured window; the weighted-speedup inputs.
	IPC []float64
	// Cycles is the measured-window length (max core finish - warm start).
	Cycles uint64

	// L3 holds the shared L3's counters over the measured window.
	L3 cache.Stats
	// L4 holds the DRAM cache's counters over the measured window.
	L4 dcache.Stats
	// HBM holds the stacked-DRAM device's counters over the measured
	// window.
	HBM dram.Stats
	// DDR holds the main-memory device's counters over the measured
	// window.
	DDR dram.Stats

	// Energy is the DRAM energy of the measured window, from the HBM
	// and DDR counters and Cycles.
	Energy energy.Breakdown
	// CIPAccuracy is the fraction of scored CIP index predictions that
	// were right, over the whole run, warm-up included.
	CIPAccuracy float64
	// CIPPredictions counts the scored CIP predictions behind
	// CIPAccuracy.
	CIPPredictions uint64
	// MAPIAccuracy is the MAP-I hit/miss predictor's accuracy over the
	// whole run, warm-up included.
	MAPIAccuracy float64
	// Fault reports injected/corrected/detected/silent fault activity over
	// the measured window (all zero when fault injection is off).
	Fault fault.Stats
	// QuarantinedSets is the number of L4 sets quarantined to
	// uncompressed storage by the end of the run.
	QuarantinedSets int
	// EffCapacity is the average L4 effective-capacity multiplier sampled
	// over the measured window (Table 5).
	EffCapacity float64
	// Prefetches counts the L3 prefetches of Table 7 over the measured
	// window (all zero under PrefetchNone).
	Prefetches PrefetchStats
}

// PrefetchStats counts L3 prefetch candidates by outcome. Each
// candidate ends in exactly one outcome, so Triggered equals
// PastFootprint + L3Resident + Throttled + Issued.
type PrefetchStats struct {
	// Triggered counts candidates: one per demand L3 miss under a
	// prefetch mode.
	Triggered uint64
	// PastFootprint counts candidates dropped because the line lies
	// past the core's workload footprint.
	PastFootprint uint64
	// L3Resident counts candidates dropped because the line is already
	// in the L3.
	L3Resident uint64
	// Throttled counts candidates dropped because more than
	// QueueDepth/8 requests were in flight on the target HBM channel.
	Throttled uint64
	// Issued counts prefetches sent to the memory system.
	Issued uint64
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
	// instrPerRef is the instructions the core charges per memory
	// reference, instrPerRefMPKI/MPKI: its issue gaps, IPC and epoch
	// IPC all read it.
	instrPerRef float64
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
	pf    PrefetchStats

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

// Size implements dcache.Sizer over physical lines: it sizes the
// virtual line mapped at paLine from its instance's shared size table,
// or reports an untranslated line incompressible.
func (m *machine) Size(alg compress.AlgID, paLine uint64) int {
	pp := paLine >> 6
	if pp >= uint64(len(m.revMap)) {
		return compress.LineSize
	}
	ref := m.revMap[pp]
	return m.insts[ref.inst].Size(alg, ref.vpage<<6|paLine&63)
}

// PairSize implements dcache.Sizer over physical lines. A page maps
// whole, so the even line and its buddy belong to one virtual page.
func (m *machine) PairSize(alg compress.AlgID, evenPA uint64) int {
	pp := evenPA >> 6
	if pp >= uint64(len(m.revMap)) {
		return 2 * compress.LineSize
	}
	ref := m.revMap[pp]
	return m.insts[ref.inst].PairSize(alg, ref.vpage<<6|evenPA&63)
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
	st, err := prepare(cfg, w, ob)
	if err != nil {
		return Result{}, err
	}
	runEvent(st)
	return st.finish(), nil
}

// step processes one reference of core c, advancing its clock.
func (m *machine) step(c *core) {
	req := c.inst.Gen.Next()
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
	done, l3Hit := m.accessMemSystem(now, pa, req.Write, true)

	// Stores retire through the store buffer; only loads occupy the MLP
	// window.
	if !req.Write {
		c.outstanding = insertSorted(c.outstanding, done)
	}

	// Prefetch options (Table 7) trigger on demand L3 misses only: an L3
	// hit means the spatial region is already on chip.
	if !l3Hit {
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
// prefetchers do. The target channel is the one holding the L4 set the
// prefetch's read would probe first (sets are 72-byte frames, so it is
// not the channel of the line's own address).
func (m *machine) prefetch(now uint64, c *core, vline uint64) {
	m.pf.Triggered++
	if vline >= c.inst.FootprintLines {
		m.pf.PastFootprint++
		return
	}
	pa := m.translate(c.idx, vline)
	if m.l3.Contains(pa) {
		m.pf.L3Resident++
		return
	}
	if m.hbm.InFlight(now, m.l4.FirstProbeLoc(pa)) > m.hbm.Config().QueueDepth/8 {
		m.pf.Throttled++
		return
	}
	m.pf.Issued++
	m.accessMemSystem(now, pa, false, false)
}

// accessMemSystem walks one reference through L3 -> L4 -> DDR and returns
// its data-ready cycle and whether it hit in L3. demand distinguishes
// demand requests (which train MAP-I) from prefetches.
func (m *machine) accessMemSystem(now uint64, pa uint64, write bool, demand bool) (uint64, bool) {
	if m.l3.Lookup(pa, write) {
		return now + l3HitLat, true
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
	return dataAt, false
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
