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
// key (experiments.CellSpec.Key) is its identity everywhere — matrix dedup,
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

	"dice/internal/experiments"
	"dice/internal/workloads"
)

// DefaultRefs is the per-core reference budget a spec gets when it
// does not set one. Every expanded cell carries the resolved value
// explicitly, so cell keys never depend on a daemon's local default.
const DefaultRefs = 2000

// Spec is a parsed sweep: the scalars that apply to every cell, the
// workload axis, and the values of every other declared axis. An
// absent axis holds the cell's zero value, so the expanded matrix is
// always the full cross product of what the spec declares.
type Spec struct {
	// Name labels the sweep ("" = unnamed); exports echo it.
	Name string
	// Refs is the per-core reference budget stamped into every cell.
	Refs int
	// Workloads is the expanded workload axis (suite keywords already
	// resolved to names, deduplicated first-wins). Required.
	Workloads []string
	// axes maps each declared axis key to its values, ranges already
	// enumerated, each one checked by checkValue.
	axes map[string][]string
}

// axis is one row of the sweep's axis table: the spec key, whether the
// key takes "lo..hi [step N]" ranges, and how a value lands in a cell.
type axis struct {
	key    string
	ranges bool
	set    func(c *experiments.CellSpec, v string) error
}

// axisTable lists every axis but workload in canonical expansion order:
// the order SWEEPS.md documents, independent of spec line order. A set
// only parses; vocabularies and bounds live in experiments.CellSpec.Config
// and sim.Config.Validate, which checkValue applies.
var axisTable = []axis{
	{"policy", false, func(c *experiments.CellSpec, v string) error { c.Policy = v; return nil }},
	{"org", false, func(c *experiments.CellSpec, v string) error { c.Org = v; return nil }},
	{"threshold", true, func(c *experiments.CellSpec, v string) error { return setInt(&c.Threshold, v) }},
	{"compress", false, func(c *experiments.CellSpec, v string) error { c.Compress = v; return nil }},
	{"ber", false, func(c *experiments.CellSpec, v string) (err error) {
		if c.BER, err = strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("want a rate, got %q", v)
		}
		return nil
	}},
	{"fault-seed", false, func(c *experiments.CellSpec, v string) (err error) {
		if c.FaultSeed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return fmt.Errorf("want an unsigned integer, got %q", v)
		}
		return nil
	}},
	{"fault-policy", false, func(c *experiments.CellSpec, v string) error { c.FaultPolicy = v; return nil }},
	{"capacity", true, func(c *experiments.CellSpec, v string) error { return setInt(&c.Capacity, v) }},
	{"bw", true, func(c *experiments.CellSpec, v string) error { return setInt(&c.BW, v) }},
	{"latency", false, func(c *experiments.CellSpec, v string) error {
		if v != "full" && v != "half" {
			return fmt.Errorf("want full or half, got %q", v)
		}
		c.HalfLat = v == "half"
		return nil
	}},
	{"prefetch", false, func(c *experiments.CellSpec, v string) error { c.Prefetch = v; return nil }},
	{"mlp", true, func(c *experiments.CellSpec, v string) error { return setInt(&c.MLP, v) }},
	{"scale", true, func(c *experiments.CellSpec, v string) error {
		n, err := strconv.ParseUint(v, 10, 8)
		if err != nil {
			return fmt.Errorf("want a small unsigned integer, got %q", v)
		}
		c.Scale = uint(n)
		return nil
	}},
}

// setInt parses an integer axis value. Bounds are checkValue's: a
// negative capacity, bw, mlp or threshold fails sim.Config.Validate or
// CellSpec.Config, and 0 or 1 for capacity names the same cell.
func setInt(dst *int, v string) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("want an integer, got %q", v)
	}
	*dst = n
	return nil
}

// checkValue sets v into an otherwise default cell and runs the same
// checks a cell meets at run time, so a spec accepts exactly the values
// a cell can run.
func (ax axis) checkValue(v string) error {
	var c experiments.CellSpec
	if err := ax.set(&c, v); err != nil {
		return err
	}
	cfg, err := c.Config(0)
	if err != nil {
		return err
	}
	return cfg.Validate()
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
// values, naming an unknown key, or a value the simulator would reject
// is an error citing the line number. See SWEEPS.md for the grammar
// and axis semantics.
func Parse(r io.Reader) (*Spec, error) {
	s := &Spec{Refs: DefaultRefs, axes: map[string][]string{}}
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

// assign folds one parsed assignment into the spec, checking every
// axis value against the simulator's own validation.
func (s *Spec) assign(key string, vals []string) error {
	switch key {
	case "name", "refs":
		if len(vals) != 1 {
			return fmt.Errorf("%q takes one value, got %d", key, len(vals))
		}
		if key == "name" {
			s.Name = vals[0]
			return nil
		}
		n, err := strconv.Atoi(vals[0])
		if err != nil || n <= 0 {
			return fmt.Errorf("refs: want a positive integer, got %q", vals[0])
		}
		s.Refs = n
		return nil
	case "workload":
		return s.assignWorkloads(vals)
	}
	for _, ax := range axisTable {
		if ax.key != key {
			continue
		}
		if ax.ranges {
			var err error
			if vals, err = expandRanges(key, vals); err != nil {
				return err
			}
		}
		for _, v := range vals {
			if err := ax.checkValue(v); err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
		}
		s.axes[key] = vals
		return nil
	}
	return fmt.Errorf("unknown key %q", key)
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
		// A negative span means hi-lo overflowed; counting steps rather
		// than comparing against hi keeps lo+k*step from wrapping too.
		span := hi - lo
		if span < 0 || span/step >= maxRangeValues {
			return nil, fmt.Errorf("%s: range %q expands to more than %d values", key, v, maxRangeValues)
		}
		for k := 0; k <= span/step; k++ {
			out = append(out, strconv.Itoa(lo+k*step))
		}
	}
	return out, nil
}
