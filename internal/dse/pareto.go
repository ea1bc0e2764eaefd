package dse

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"dice/internal/experiments"
	"dice/internal/serve"
)

// Point is one sweep cell positioned in the objective space the
// frontier is computed over: speedup (higher is better) against
// relative energy, relative EDP and unrecovered faults (each lower is
// better), all normalized to the cell's baseline (experiments.CellSpec.
// Baseline — the uncompressed Alloy design on the same workload and
// machine knobs).
type Point struct {
	// Key is the cell's canonical identity.
	Key string `json:"key"`
	// Workload names the cell's workload; frontiers are per-workload.
	Workload string `json:"workload"`
	// Speedup is the mean per-core IPC ratio versus the baseline.
	Speedup float64 `json:"speedup"`
	// EnergyRel is total energy relative to the baseline.
	EnergyRel float64 `json:"energy_rel"`
	// EDPRel is energy-delay product relative to the baseline.
	EDPRel float64 `json:"edp_rel"`
	// FaultUnrecovered counts faults no mechanism repaired.
	FaultUnrecovered uint64 `json:"fault_unrecovered"`
	// Frontier marks the cell Pareto-optimal within its workload: no
	// other cell is at least as good on every objective and strictly
	// better on one.
	Frontier bool `json:"frontier"`
}

// Frontier positions every expanded cell against its baseline and
// marks the per-workload Pareto-optimal set. It requires a result for
// every cell (an incomplete sweep has no frontier — resume it first)
// and returns points sorted by (workload, key), so the same results
// always render the same bytes regardless of execution order, worker
// count, or which shards ran which cells.
func Frontier(cells []experiments.CellSpec, results map[string]serve.CellResult) ([]Point, error) {
	points := make([]Point, 0, len(cells))
	for _, c := range cells {
		key := c.Key()
		res, ok := results[key]
		if !ok {
			return nil, fmt.Errorf("dse: no result for cell %s (incomplete sweep; resume it first)", key)
		}
		base, ok := results[c.Baseline().Key()]
		if !ok {
			return nil, fmt.Errorf("dse: no baseline result for cell %s (incomplete sweep; resume it first)", key)
		}
		points = append(points, Point{
			Key:              key,
			Workload:         c.Workload,
			Speedup:          speedup(base, res),
			EnergyRel:        ratio(res.Energy, base.Energy),
			EDPRel:           ratio(res.EDP, base.EDP),
			FaultUnrecovered: res.FaultUnrecovered,
		})
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].Workload != points[j].Workload {
			return points[i].Workload < points[j].Workload
		}
		return points[i].Key < points[j].Key
	})
	markFrontier(points)
	return points, nil
}

// speedup is the mean per-core IPC ratio test/base — the same
// weighted-speedup definition sim.Speedup uses for experiment tables,
// recomputed here from the wire-format IPC vectors.
func speedup(base, test serve.CellResult) float64 {
	n := len(test.IPC)
	if n == 0 || len(base.IPC) != n {
		return math.NaN()
	}
	sum := 0.0
	for i := range test.IPC {
		sum += ratio(test.IPC[i], base.IPC[i])
	}
	return sum / float64(n)
}

// ratio is a/b, tolerating a zero denominator (1 when both are zero,
// +Inf otherwise) so degenerate cells position deterministically
// instead of poisoning the frontier with NaN comparisons.
func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}

// markFrontier sets Frontier on the per-workload Pareto-optimal
// points. points must be sorted by workload; each workload group is
// scanned O(n²), fine at sweep scale where a workload rarely holds
// more than a few thousand cells.
func markFrontier(points []Point) {
	for lo := 0; lo < len(points); {
		hi := lo
		for hi < len(points) && points[hi].Workload == points[lo].Workload {
			hi++
		}
		group := points[lo:hi]
		for i := range group {
			group[i].Frontier = !dominated(group, i)
		}
		lo = hi
	}
}

// dominated reports whether some other point in group beats point i:
// at least as good on every objective, strictly better on one.
func dominated(group []Point, i int) bool {
	p := group[i]
	for j := range group {
		if j == i {
			continue
		}
		q := group[j]
		if q.Speedup >= p.Speedup && q.EnergyRel <= p.EnergyRel &&
			q.EDPRel <= p.EDPRel && q.FaultUnrecovered <= p.FaultUnrecovered &&
			(q.Speedup > p.Speedup || q.EnergyRel < p.EnergyRel ||
				q.EDPRel < p.EDPRel || q.FaultUnrecovered < p.FaultUnrecovered) {
			return true
		}
	}
	return false
}

// WriteCSV renders the points as CSV: a fixed header then one row per
// point in the given order. Keys contain commas, so fields are
// RFC 4180-quoted by encoding/csv; floats are formatted losslessly
// (strconv 'g', like the obs exports), so the bytes are a pure
// function of the values.
func WriteCSV(w io.Writer, points []Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"key", "workload", "speedup", "energy_rel", "edp_rel", "fault_unrecovered", "frontier"}); err != nil {
		return err
	}
	for _, p := range points {
		err := cw.Write([]string{
			p.Key, p.Workload,
			strconv.FormatFloat(p.Speedup, 'g', -1, 64),
			strconv.FormatFloat(p.EnergyRel, 'g', -1, 64),
			strconv.FormatFloat(p.EDPRel, 'g', -1, 64),
			strconv.FormatUint(p.FaultUnrecovered, 10),
			strconv.FormatBool(p.Frontier),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON renders the points as an indented JSON array in the given
// order. Non-finite values (possible only from degenerate zero-IPC
// cells) are rejected up front with the offending cell named, rather
// than surfacing encoding/json's unlocated "unsupported value".
func WriteJSON(w io.Writer, points []Point) error {
	for _, p := range points {
		for _, v := range [...]float64{p.Speedup, p.EnergyRel, p.EDPRel} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dse: cell %s has a non-finite objective; use CSV for raw dumps", p.Key)
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(points)
}
