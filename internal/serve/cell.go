package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dice/internal/compress"
	"dice/internal/dcache"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// MaxCellsPerJob bounds a batch cell job. A sweep that needs more
// cells submits more jobs; one oversized job would defeat the
// per-job deadline and cancellation granularity the daemon promises.
const MaxCellsPerJob = 4096

// CellSpec is the wire form of one sweep cell: a full sim.Config
// spelled in the CLI's vocabulary plus the workload name. It is the
// single definition both execution paths share — the sweep engine
// (internal/dse) expands specs into CellSpecs and the daemon's batch
// jobs carry them — so a cell produces identical bytes no matter
// where it runs. Zero values mean the simulator defaults, exactly as
// the dicesim flags do.
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
	// Refs is the measured reference count per core (0 = job default).
	Refs int `json:"refs,omitempty"`
	// Scale is the system scale shift (0 = 10).
	Scale uint `json:"scale,omitempty"`
}

// Key is the cell's canonical identity: every field spelled in a
// fixed order with canonical number formatting. It keys the sweep
// engine's dedup, its results log, and the runner memoization of a
// batch job, so "the same cell" means the same string everywhere.
// The format is distinct from the experiment runner's
// "<config>|<workload>" keys (those never contain '='), so the two
// never collide in a shared Runner.
func (c CellSpec) Key() string {
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
	return b.String()
}

// Validate rejects cells the simulator could only fail on mid-run:
// an unknown workload, everything Config rejects, and everything
// sim.Config.Validate covers (threshold, BER, capacity, bandwidth and
// scale bounds, fault policy, negative refs or MLP window).
func (c CellSpec) Validate() error {
	if c.Workload == "" {
		return fmt.Errorf("serve: cell names no workload")
	}
	if _, err := workloads.ByName(c.Workload); err != nil {
		return fmt.Errorf("serve: cell: %w", err)
	}
	cfg, err := c.Config(0)
	if err != nil {
		return fmt.Errorf("serve: cell: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("serve: cell: %w", err)
	}
	return nil
}

// Config materializes the cell as a sim.Config, resolving a zero Refs
// to defaultRefs (the daemon's per-job default; the sweep engine
// always sets Refs explicitly so keys stay portable across daemons).
// It rejects names outside the CLI vocabulary and a negative threshold
// (the wire form has no spelling for dcache's always-TSI -1).
func (c CellSpec) Config(defaultRefs int) (sim.Config, error) {
	if c.Threshold < 0 {
		return sim.Config{}, fmt.Errorf("threshold must be >= 0, got %d", c.Threshold)
	}
	policy := c.Policy
	if policy == "" {
		policy = "base"
	}
	pol, err := dcache.ParsePolicy(policy)
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

// IsBaseline reports whether the cell is its own normalization point.
func (c CellSpec) IsBaseline() bool { return c == c.Baseline() }

// CellResult is the metrics snapshot of one simulated cell — the
// fields the Pareto post-processing consumes, extracted from
// sim.Result by the one shared function CellResultFrom so local and
// daemon execution produce identical values (and therefore identical
// exported bytes).
type CellResult struct {
	// Key is the cell's canonical identity (CellSpec.Key).
	Key string `json:"key"`
	// Workload echoes the cell's workload name.
	Workload string `json:"workload"`
	// IPC is the per-core IPC vector — the weighted-speedup inputs.
	IPC []float64 `json:"ipc"`
	// Cycles is the measured-window length.
	Cycles uint64 `json:"cycles"`
	// L3HitRate and L4HitRate are end-of-run hit rates.
	L3HitRate float64 `json:"l3_hit_rate"`
	// L4HitRate is the DRAM-cache hit rate over the measured window.
	L4HitRate float64 `json:"l4_hit_rate"`
	// EffCapacity is the average L4 effective-capacity multiplier.
	EffCapacity float64 `json:"eff_capacity"`
	// Energy is the total memory-system energy (internal/energy units).
	Energy float64 `json:"energy"`
	// EDP is the energy-delay product.
	EDP float64 `json:"edp"`
	// CIPAccuracy is the index predictor's accuracy (0 when unused).
	CIPAccuracy float64 `json:"cip_accuracy,omitempty"`
	// FaultInjected counts injected bit flips over the measured window.
	FaultInjected uint64 `json:"fault_injected,omitempty"`
	// FaultUnrecovered counts the faults no mechanism repaired: silent
	// corruptions served to the core plus dirty lines lost to flushes —
	// the (lower-is-better) reliability objective.
	FaultUnrecovered uint64 `json:"fault_unrecovered,omitempty"`
}

// CellResultFrom extracts a cell's metrics snapshot from its
// simulation result.
func CellResultFrom(key string, res sim.Result) CellResult {
	ipc := make([]float64, len(res.IPC))
	copy(ipc, res.IPC)
	return CellResult{
		Key:              key,
		Workload:         res.Workload,
		IPC:              ipc,
		Cycles:           res.Cycles,
		L3HitRate:        res.L3.HitRate(),
		L4HitRate:        res.L4.HitRate(),
		EffCapacity:      res.EffCapacity,
		Energy:           res.Energy.Total(),
		EDP:              res.Energy.EDP(),
		CIPAccuracy:      res.CIPAccuracy,
		FaultInjected:    res.Fault.Flipped,
		FaultUnrecovered: res.L4.FaultSilentHits + res.L4.FaultDirtyLoss,
	}
}

// EncodeCellResults renders a batch job's output: one compact JSON
// object per line, in the order given. This is the byte format a
// batch job's Output carries; both sides of the wire share it through
// this pair of functions.
func EncodeCellResults(w io.Writer, results []CellResult) error {
	enc := json.NewEncoder(w) // Encode appends exactly one '\n' per value
	for i := range results {
		if err := enc.Encode(&results[i]); err != nil {
			return fmt.Errorf("serve: encoding cell result: %w", err)
		}
	}
	return nil
}

// DecodeCellResults parses EncodeCellResults output back into cell
// results, tolerating a truncated final line (a cancelled batch job
// returns its completed prefix).
func DecodeCellResults(r io.Reader) ([]CellResult, error) {
	var out []CellResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var res CellResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("serve: decoding cell result: %w", err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: decoding cell results: %w", err)
	}
	return out, nil
}
