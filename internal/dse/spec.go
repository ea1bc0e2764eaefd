// Package dse is the design-space-exploration engine: it parses a
// declarative sweep spec into configuration axes, expands the axes
// into a deduplicated matrix of simulation cells, executes the matrix
// either in-process (through the experiment runner's memoizing pool)
// or sharded across dicebenchd daemons, checkpoints every completed
// cell to a CRC-32C results log so an interrupted sweep resumes
// without re-running, and post-processes the results into per-workload
// Pareto frontiers over speedup, energy, EDP and fault resilience.
//
// The invariant the whole package is built around: a cell's canonical
// key (serve.CellSpec.Key) is its identity everywhere — matrix dedup,
// the results log, runner memoization and daemon batch jobs all agree
// on what "the same cell" means — and every execution path derives a
// cell's metrics through the one shared serve.CellResultFrom, so
// frontier exports are byte-identical at any worker count and whether
// cells ran locally or on daemons. See SWEEPS.md for the spec grammar
// and DESIGN.md §14 for the architecture.
package dse

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dice/internal/compress"
	"dice/internal/dcache"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// DefaultRefs is the per-core reference budget a spec gets when it
// does not set one. Every expanded cell carries the resolved value
// explicitly, so cell keys never depend on a daemon's local default.
const DefaultRefs = 2000

// Spec is a parsed sweep: one or more values per configuration axis,
// plus the scalars that apply to every cell. Absent axes hold their
// single zero value, so the expanded matrix is always the full cross
// product of what the spec declares.
type Spec struct {
	// Name labels the sweep ("" = unnamed); exports echo it.
	Name string
	// Refs is the per-core reference budget stamped into every cell.
	Refs int
	// Workloads is the expanded workload axis (suite keywords already
	// resolved to names, deduplicated first-wins). Required.
	Workloads []string
	// Policies is the L4 design axis (base|tsi|nsi|bai|dice|scc).
	Policies []string
	// Orgs is the tag-organization axis (alloy|knl).
	Orgs []string
	// Thresholds is the DICE BAI-insertion threshold axis, in bytes.
	Thresholds []int
	// Compress is the compression-algorithm axis (hybrid|fpc|bdi).
	Compress []string
	// BERs is the injected raw bit-error-rate axis.
	BERs []float64
	// FaultSeeds is the deterministic fault-stream seed axis.
	FaultSeeds []uint64
	// FaultPolicies is the fault-recovery-policy axis (none|ecc|ecc+quarantine).
	FaultPolicies []string
	// Capacities is the L4 capacity-multiplier axis.
	Capacities []int
	// BWs is the L4 bandwidth-multiplier axis.
	BWs []int
	// HalfLats is the L4 timing axis (false = full latency, true = half).
	HalfLats []bool
	// Prefetches is the L3 prefetch-mode axis (none|nextline|wide128).
	Prefetches []string
	// MLPs is the per-core outstanding-reference-window axis.
	MLPs []int
	// Scales is the system scale-shift axis (0 = default 10).
	Scales []uint
}

// suites maps the workload-axis suite keywords to their catalogs.
var suites = map[string]func() []workloads.Workload{
	"rate":    workloads.Rate16,
	"mix":     workloads.Mixes,
	"gap":     workloads.GAP6,
	"all26":   workloads.All26,
	"lowmpki": workloads.LowMPKI13,
}

// ParseFile parses the sweep spec at path.
func ParseFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("dse: %s: %w", path, err)
	}
	return s, nil
}

// Parse reads a sweep spec: one "key = values" assignment per line,
// values separated by commas and/or spaces, '#' starting a comment.
// Scalars (name, refs) take exactly one value; every other key is an
// axis and takes one or more. Assigning a key twice, assigning no
// values, or naming an unknown key or value is an error citing the
// line number. See SWEEPS.md for the grammar and axis semantics.
func Parse(r io.Reader) (*Spec, error) {
	s := &Spec{Refs: DefaultRefs}
	seen := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<10), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, rest, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("line %d: want \"key = values\", got %q", lineno, line)
		}
		key = strings.TrimSpace(key)
		vals := strings.FieldsFunc(rest, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		})
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("line %d: %q already assigned on line %d", lineno, key, prev)
		}
		seen[key] = lineno
		if len(vals) == 0 {
			return nil, fmt.Errorf("line %d: %q lists no values", lineno, key)
		}
		if err := s.assign(key, vals); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("spec declares no workload axis (required)")
	}
	return s, nil
}

// assign folds one parsed assignment into the spec, validating every
// value against the vocabulary its axis accepts.
func (s *Spec) assign(key string, vals []string) error {
	one := func() (string, error) {
		if len(vals) != 1 {
			return "", fmt.Errorf("%q takes one value, got %d", key, len(vals))
		}
		return vals[0], nil
	}
	switch key {
	case "name":
		v, err := one()
		if err != nil {
			return err
		}
		s.Name = v
		return nil
	case "refs":
		v, err := one()
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return fmt.Errorf("refs: want a positive integer, got %q", v)
		}
		s.Refs = n
		return nil
	case "workload":
		return s.assignWorkloads(vals)
	case "policy":
		return assignEnum(&s.Policies, key, vals, func(v string) error {
			_, err := dcache.ParsePolicy(v)
			return err
		})
	case "org":
		return assignEnum(&s.Orgs, key, vals, func(v string) error {
			_, err := dcache.ParseOrg(v)
			return err
		})
	case "threshold":
		return assignInts(&s.Thresholds, key, vals, 0)
	case "compress":
		return assignEnum(&s.Compress, key, vals, func(v string) error {
			_, err := compress.ParseAlg(v)
			return err
		})
	case "ber":
		for _, v := range vals {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return fmt.Errorf("ber: want a rate in [0,1], got %q", v)
			}
			s.BERs = append(s.BERs, f)
		}
		return nil
	case "fault-seed":
		for _, v := range vals {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("fault-seed: want an unsigned integer, got %q", v)
			}
			s.FaultSeeds = append(s.FaultSeeds, n)
		}
		return nil
	case "fault-policy":
		return assignEnum(&s.FaultPolicies, key, vals, func(v string) error {
			return (sim.Config{FaultBER: 1e-9, FaultPolicy: v}).Validate()
		})
	case "capacity":
		return assignInts(&s.Capacities, key, vals, 1)
	case "bw":
		return assignInts(&s.BWs, key, vals, 1)
	case "latency":
		for _, v := range vals {
			switch v {
			case "full":
				s.HalfLats = append(s.HalfLats, false)
			case "half":
				s.HalfLats = append(s.HalfLats, true)
			default:
				return fmt.Errorf("latency: want full or half, got %q", v)
			}
		}
		return nil
	case "prefetch":
		return assignEnum(&s.Prefetches, key, vals, func(v string) error {
			_, err := sim.ParsePrefetchMode(v)
			return err
		})
	case "mlp":
		return assignInts(&s.MLPs, key, vals, 1)
	case "scale":
		vals, err := expandRanges(key, vals)
		if err != nil {
			return err
		}
		for _, v := range vals {
			n, err := strconv.ParseUint(v, 10, 8)
			if err != nil {
				return fmt.Errorf("scale: want a small unsigned integer, got %q", v)
			}
			s.Scales = append(s.Scales, uint(n))
		}
		return nil
	default:
		return fmt.Errorf("unknown key %q", key)
	}
}

// assignWorkloads resolves the workload axis: each value is a suite
// keyword (rate, mix, gap, all26, lowmpki) or a cataloged workload
// name; duplicates collapse first-wins so suite overlaps do not
// inflate the matrix.
func (s *Spec) assignWorkloads(vals []string) error {
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			s.Workloads = append(s.Workloads, name)
		}
	}
	for _, v := range vals {
		if suite, ok := suites[v]; ok {
			for _, w := range suite() {
				add(w.Name)
			}
			continue
		}
		if _, err := workloads.ByName(v); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
		add(v)
	}
	return nil
}

// assignEnum appends string axis values after validating each.
func assignEnum(dst *[]string, key string, vals []string, check func(string) error) error {
	for _, v := range vals {
		if err := check(v); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		*dst = append(*dst, v)
	}
	return nil
}

// assignInts appends integer axis values — enumerated or lo..hi
// ranges — each at least min.
func assignInts(dst *[]int, key string, vals []string, min int) error {
	vals, err := expandRanges(key, vals)
	if err != nil {
		return err
	}
	for _, v := range vals {
		n, err := strconv.Atoi(v)
		if err != nil || n < min {
			return fmt.Errorf("%s: want an integer >= %d, got %q", key, min, v)
		}
		*dst = append(*dst, n)
	}
	return nil
}

// maxRangeValues bounds what one lo..hi range may expand to; a typo
// like "0..1000000" should be an error, not a million-cell axis.
const maxRangeValues = 4096

// expandRanges rewrites numeric range tokens on an integer axis into
// the values they enumerate: "lo..hi" denotes every integer from lo
// to hi inclusive, and "lo..hi step N" strides by N (the last value
// is the largest lo+k*N <= hi). Ranges expand before validation, so
// they are pure spec-file shorthand — a spec written with a range and
// one written with the enumerated values produce identical axes and
// therefore identical canonical cell keys (memoization, results-log
// dedup and -resume are unaffected). Non-range tokens pass through
// untouched; "step" is only meaningful directly after a range.
func expandRanges(key string, vals []string) ([]string, error) {
	out := make([]string, 0, len(vals))
	for i := 0; i < len(vals); i++ {
		v := vals[i]
		if v == "step" {
			return nil, fmt.Errorf("%s: \"step\" must directly follow a lo..hi range", key)
		}
		if !strings.Contains(v, "..") {
			out = append(out, v)
			continue
		}
		loStr, hiStr, _ := strings.Cut(v, "..")
		lo, loErr := strconv.Atoi(loStr)
		hi, hiErr := strconv.Atoi(hiStr)
		if loErr != nil || hiErr != nil {
			return nil, fmt.Errorf("%s: want lo..hi with integer bounds, got %q", key, v)
		}
		if lo > hi {
			return nil, fmt.Errorf("%s: range %q is empty (lo > hi)", key, v)
		}
		step := 1
		if i+1 < len(vals) && vals[i+1] == "step" {
			if i+2 >= len(vals) {
				return nil, fmt.Errorf("%s: range %q: \"step\" needs a value", key, v)
			}
			n, err := strconv.Atoi(vals[i+2])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("%s: range %q: step wants a positive integer, got %q", key, v, vals[i+2])
			}
			step = n
			i += 2
		}
		if (hi-lo)/step+1 > maxRangeValues {
			return nil, fmt.Errorf("%s: range %q expands to more than %d values", key, v, maxRangeValues)
		}
		for n := lo; n <= hi; n += step {
			out = append(out, strconv.Itoa(n))
		}
	}
	return out, nil
}
