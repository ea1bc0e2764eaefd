package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"dice/internal/compress"
	"dice/internal/dcache"
	"dice/internal/fault"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// CellSpec is one simulated configuration: a full sim.Config spelled
// in the CLI's vocabulary plus the workload name. It is the single
// configuration vocabulary of the repository — experiments declare
// their cells as CellSpecs, the sweep engine (internal/dse) expands
// specs into them, and the daemon's batch jobs carry them — so a cell
// produces identical bytes no matter where it runs. Zero values mean
// the simulator defaults, exactly as the dicesim flags do; a default
// spelled out (Org "alloy", Threshold 36) names the same cell, because
// Key and Config read the cell's normal form.
type CellSpec struct {
	// Workload names a cataloged workload (workloads.ByName).
	Workload string `json:"workload"`
	// Policy is the L4 design: base|tsi|nsi|bai|dice|scc ("" = base).
	Policy string `json:"policy,omitempty"`
	// Org is the tag organization: alloy|knl ("" = alloy).
	Org string `json:"org,omitempty"`
	// Threshold is the DICE BAI-insertion threshold in bytes (0 = 36).
	Threshold int `json:"threshold,omitempty"`
	// Compress restricts the compression algorithm: hybrid|fpc|bdi
	// ("" = hybrid; see compress.ParseAlg).
	Compress string `json:"compress,omitempty"`
	// BER is the injected raw bit-error rate (0 = no fault injection).
	BER float64 `json:"ber,omitempty"`
	// FaultSeed pins the deterministic fault stream.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// FaultPolicy is the recovery policy: none|ecc|ecc+quarantine ("" = default).
	FaultPolicy string `json:"fault_policy,omitempty"`
	// Capacity is the L4 capacity multiplier (0 = 1).
	Capacity int `json:"capacity,omitempty"`
	// BW is the L4 bandwidth (channel) multiplier (0 = 1).
	BW int `json:"bw,omitempty"`
	// HalfLat halves the L4 DRAM timing (Table 8's latency knob).
	HalfLat bool `json:"half_lat,omitempty"`
	// Prefetch is the L3 prefetch mode: none|nextline|wide128 ("" = none).
	Prefetch string `json:"prefetch,omitempty"`
	// MLP is the per-core outstanding-reference window (0 = 6).
	MLP int `json:"mlp,omitempty"`
	// Refs is the measured reference count per core (0 = the runner's
	// or the daemon job's default).
	Refs int `json:"refs,omitempty"`
	// Scale is the system scale shift (0 = 10).
	Scale uint `json:"scale,omitempty"`
	// CIP is the CIP Last-Time Table size in entries, a power of two
	// (0 = 2048; Section 5.3).
	CIP int `json:"cip,omitempty"`
}

// Key is the cell's identity: every field of its normal form (see
// canonical) spelled in a fixed order with canonical number
// formatting, so two spellings of one simulation share one key. It
// keys the runner's memoization, the sweep engine's dedup and results
// log, and the epoch-metrics exports, so "the same cell" means the
// same string everywhere. CIP is appended only when set, so cells that
// leave it at the default keep the keys they had before the field
// existed.
func (c CellSpec) Key() string {
	c = c.canonical()
	var b strings.Builder
	b.Grow(96)
	b.WriteString("w=")
	b.WriteString(c.Workload)
	b.WriteString(",p=")
	b.WriteString(c.Policy)
	b.WriteString(",o=")
	b.WriteString(c.Org)
	b.WriteString(",t=")
	b.WriteString(strconv.Itoa(c.Threshold))
	b.WriteString(",c=")
	b.WriteString(c.Compress)
	b.WriteString(",ber=")
	b.WriteString(strconv.FormatFloat(c.BER, 'g', -1, 64))
	b.WriteString(",fs=")
	b.WriteString(strconv.FormatUint(c.FaultSeed, 10))
	b.WriteString(",fp=")
	b.WriteString(c.FaultPolicy)
	b.WriteString(",cap=")
	b.WriteString(strconv.Itoa(c.Capacity))
	b.WriteString(",bw=")
	b.WriteString(strconv.Itoa(c.BW))
	b.WriteString(",lat=")
	if c.HalfLat {
		b.WriteString("half")
	} else {
		b.WriteString("full")
	}
	b.WriteString(",pf=")
	b.WriteString(c.Prefetch)
	b.WriteString(",mlp=")
	b.WriteString(strconv.Itoa(c.MLP))
	b.WriteString(",r=")
	b.WriteString(strconv.Itoa(c.Refs))
	b.WriteString(",sc=")
	b.WriteString(strconv.FormatUint(uint64(c.Scale), 10))
	if c.CIP != 0 {
		b.WriteString(",cip=")
		b.WriteString(strconv.Itoa(c.CIP))
	}
	return b.String()
}

// Label is a short display name for progress lines and test names,
// "<policy>[-<knob>...]|<workload>" (dice-knl|mcf, base-2both|gcc,
// dice-ber0.003|libq). It omits Refs and Scale, so unlike Key it is
// not an identity.
func (c CellSpec) Label() string {
	c = c.canonical()
	var b strings.Builder
	b.WriteString(c.Policy)
	if c.Org != "" {
		b.WriteString("-" + c.Org)
	}
	if c.Threshold != 0 {
		fmt.Fprintf(&b, "-t%d", c.Threshold)
	}
	if c.Compress != "" {
		b.WriteString("-" + c.Compress)
	}
	if c.Capacity != 0 && c.Capacity == c.BW {
		fmt.Fprintf(&b, "-%dboth", c.Capacity)
	} else {
		if c.Capacity != 0 {
			fmt.Fprintf(&b, "-%dcap", c.Capacity)
		}
		if c.BW != 0 {
			fmt.Fprintf(&b, "-%dbw", c.BW)
		}
	}
	if c.HalfLat {
		b.WriteString("-half")
	}
	switch c.Prefetch {
	case "nextline":
		b.WriteString("-nlpf")
	case "wide128":
		b.WriteString("-128pf")
	}
	if c.CIP != 0 {
		fmt.Fprintf(&b, "-cip%d", c.CIP)
	}
	if c.MLP != 0 {
		fmt.Fprintf(&b, "-mlp%d", c.MLP)
	}
	if c.BER != 0 {
		fmt.Fprintf(&b, "-ber%g", c.BER)
	}
	return b.String() + "|" + c.Workload
}

// canonical returns the cell's normal form, the spelling Key writes:
// Policy "" is "base"; an Org, Compress, Prefetch or FaultPolicy name
// its package parser resolves to the default is ""; Threshold 36,
// Capacity 1, BW 1, MLP 6 and CIP 2048 are 0; and at BER 0, where the
// simulator builds no fault model, FaultSeed and FaultPolicy are
// cleared. A name the parser rejects stays as written, so Validate
// still reports it. Refs and Scale stay as written: their zero means
// the runner's or the job's value (RunCells, withJob), not a fixed
// default.
func (c CellSpec) canonical() CellSpec {
	if c.Policy == "" {
		c.Policy = "base"
	}
	zeroIfDefault(&c.Org, dcache.ParseOrg)
	zeroIfDefault(&c.Compress, compress.ParseAlg)
	zeroIfDefault(&c.Prefetch, sim.ParsePrefetchMode)
	zeroIfDefault(&c.FaultPolicy, fault.ParsePolicy)
	if c.BER == 0 {
		c.BER, c.FaultSeed = 0, 0 // a BER of -0 keys as 0
		if _, err := fault.ParsePolicy(c.FaultPolicy); err == nil {
			c.FaultPolicy = ""
		}
	}
	zeroIf(&c.Threshold, dcache.DefaultThreshold)
	zeroIf(&c.Capacity, 1)
	zeroIf(&c.BW, 1)
	zeroIf(&c.MLP, sim.DefaultMLPWindow)
	zeroIf(&c.CIP, dcache.DefaultCIPEntries)
	return c
}

// zeroIfDefault clears *name when parse resolves it to the value it
// gives "", the package default.
func zeroIfDefault[T comparable](name *string, parse func(string) (T, error)) {
	def, _ := parse("")
	if v, err := parse(*name); err == nil && v == def {
		*name = ""
	}
}

// zeroIf clears *n when it spells the default def.
func zeroIf(n *int, def int) {
	if *n == def {
		*n = 0
	}
}

// Validate rejects cells the simulator could only fail on mid-run:
// an unknown workload, everything Config rejects, and everything
// sim.Config.Validate covers (threshold, BER, capacity, bandwidth,
// scale, refs and CIP bounds, fault policy, MLP window).
func (c CellSpec) Validate() error {
	if _, _, err := c.resolve(0); err != nil {
		return fmt.Errorf("experiments: cell: %w", err)
	}
	return nil
}

// resolve turns the cell into the simulation it names, with every
// check Validate makes; defaultRefs is as for Config.
func (c CellSpec) resolve(defaultRefs int) (sim.Config, workloads.Workload, error) {
	if c.Workload == "" {
		return sim.Config{}, workloads.Workload{}, fmt.Errorf("cell names no workload")
	}
	w, err := workloads.ByName(c.Workload)
	if err != nil {
		return sim.Config{}, workloads.Workload{}, err
	}
	cfg, err := c.Config(defaultRefs)
	if err == nil {
		err = cfg.Validate()
	}
	return cfg, w, err
}

// Config materializes the cell's normal form (see canonical) as a
// sim.Config, so synonymous cells give one config, resolving a zero Refs
// to defaultRefs (the runner's budget; the sweep engine always sets
// Refs explicitly so keys stay portable across daemons). It rejects
// names outside the CLI vocabulary and a negative threshold (the wire
// form has no spelling for dcache's always-TSI -1).
func (c CellSpec) Config(defaultRefs int) (sim.Config, error) {
	c = c.canonical()
	if c.Threshold < 0 {
		return sim.Config{}, fmt.Errorf("threshold must be >= 0, got %d", c.Threshold)
	}
	pol, err := dcache.ParsePolicy(c.Policy)
	if err != nil {
		return sim.Config{}, err
	}
	org, err := dcache.ParseOrg(c.Org)
	if err != nil {
		return sim.Config{}, err
	}
	pf, err := sim.ParsePrefetchMode(c.Prefetch)
	if err != nil {
		return sim.Config{}, err
	}
	if _, err := compress.ParseAlg(c.Compress); err != nil {
		return sim.Config{}, err
	}
	refs := c.Refs
	if refs == 0 {
		refs = defaultRefs
	}
	return sim.Config{
		Policy:       pol,
		Org:          org,
		Threshold:    c.Threshold,
		ScaleShift:   c.Scale,
		CapacityMult: c.Capacity,
		BWMult:       c.BW,
		HalfLatency:  c.HalfLat,
		Prefetch:     pf,
		CompressAlg:  c.Compress,
		FaultBER:     c.BER,
		FaultSeed:    c.FaultSeed,
		FaultPolicy:  c.FaultPolicy,
		MLPWindow:    c.MLP,
		CIPEntries:   c.CIP,
		RefsPerCore:  refs,
	}, nil
}

// Baseline returns the cell this cell's speedup and relative
// energy/EDP are normalized against: the uncompressed Alloy design on
// the same workload with the same scale, reference budget and
// idealized capacity/bandwidth/latency/prefetch/MLP knobs, with
// compression and fault injection off. The sweep engine adds every
// distinct baseline to the matrix automatically.
func (c CellSpec) Baseline() CellSpec {
	return CellSpec{
		Workload: c.Workload,
		Policy:   "base",
		Capacity: c.Capacity,
		BW:       c.BW,
		HalfLat:  c.HalfLat,
		Prefetch: c.Prefetch,
		MLP:      c.MLP,
		Refs:     c.Refs,
		Scale:    c.Scale,
	}
}

// IsBaseline reports whether the cell is its own normalization point:
// it and its baseline are one simulation, however either is spelled.
func (c CellSpec) IsBaseline() bool { return c.Key() == c.Baseline().Key() }

// withJob rewrites a declared cell with a job's run-wide settings —
// the one place dicebench's -scale/-fault-* flags and a daemon
// JobSpec's Scale/Fault* fields reach a simulation. job.Scale fills
// a cell that leaves Scale at the default; job's BER, FaultSeed and
// FaultPolicy fill only cells that set neither BER nor FaultPolicy, so
// an experiment that sweeps its own fault settings (fault-sweep) keeps
// them at every point.
func (c CellSpec) withJob(job CellSpec) CellSpec {
	if c.Scale == 0 {
		c.Scale = job.Scale
	}
	if c.BER == 0 && c.FaultPolicy == "" {
		c.BER, c.FaultSeed, c.FaultPolicy = job.BER, job.FaultSeed, job.FaultPolicy
	}
	return c
}
