package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dice/internal/experiments"
	"dice/internal/sim"
)

// MaxCellsPerJob bounds a batch cell job. A sweep that needs more
// cells submits more jobs; one oversized job would defeat the
// per-job deadline and cancellation granularity the daemon promises.
const MaxCellsPerJob = 4096

// CellSpec is experiments.CellSpec under its old name, for the
// benchmark module; code in this module names experiments.CellSpec.
type CellSpec = experiments.CellSpec

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
