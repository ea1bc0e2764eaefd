package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"dice/internal/experiments"
)

// Parser rejection paths, table-driven: each bad spec must fail with
// an error naming the offending line or rule, never expand to a
// surprising matrix.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"no workload axis", "policy = dice\n", "no workload axis"},
		{"unknown key", "workload = gcc\nsets = 4\n", "unknown key"},
		{"duplicate key", "workload = gcc\npolicy = dice\npolicy = base\n", "already assigned on line 2"},
		{"empty values", "workload = gcc\npolicy =\n", "lists no values"},
		{"bad line", "workload = gcc\njust some words\n", "want \"key = values\""},
		{"unknown workload", "workload = nosuch\n", "nosuch"},
		{"unknown policy", "workload = gcc\npolicy = lru\n", "unknown policy"},
		{"unknown org", "workload = gcc\norg = sectored\n", "unknown org"},
		{"unknown compress", "workload = gcc\ncompress = lz4\n", "unknown compress"},
		{"ber out of range", "workload = gcc\nber = 2\n", "line 2: ber: sim: FaultBER 2 out of range"},
		{"ber not a number", "workload = gcc\nber = lots\n", "want a rate"},
		{"bad latency", "workload = gcc\nlatency = quarter\n", "full or half"},
		{"bad prefetch", "workload = gcc\nprefetch = stride\n", "prefetch"},
		{"bad fault policy", "workload = gcc\nfault-policy = parity\n", "policy"},
		{"zero refs", "workload = gcc\nrefs = 0\n", "positive integer"},
		{"multi-value refs", "workload = gcc\nrefs = 100 200\n", "takes one value"},
		{"negative threshold", "workload = gcc\nthreshold = -1\n", "threshold must be >= 0"},
		{"threshold over line size", "workload = gcc\npolicy = dice\nthreshold = 24 100\n", "line 3: threshold: sim: Threshold 100"},
		{"negative capacity", "workload = gcc\ncapacity = -1\n", "CapacityMult -1 out of range"},
		{"range bad bounds", "workload = gcc\nthreshold = 24..x\n", "integer bounds"},
		{"range empty", "workload = gcc\nthreshold = 48..24\n", "lo > hi"},
		{"range zero step", "workload = gcc\nthreshold = 24..48 step 0\n", "positive integer"},
		{"range missing step value", "workload = gcc\nthreshold = 24..48 step\n", "needs a value"},
		{"stray step", "workload = gcc\nmlp = 4 step 2\n", "must directly follow"},
		{"range too wide", "workload = gcc\nthreshold = 0..1000000\n", "more than"},
		{"range below axis min", "workload = gcc\ncapacity = -1..4\n", "CapacityMult -1 out of range"},
		{"range span overflows", "workload = gcc\nthreshold = -9223372036854775808..9223372036854775807\n", "more than"},
		{"range step wraps", "workload = gcc\nthreshold = 9223372036854775800..9223372036854775807 step 4096\n", "Threshold 9223372036854775800"},
		{"mlp past window bound", "workload = gcc\nmlp = 2000\n", "MLPWindow 2000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.spec))
			if err == nil {
				t.Fatalf("spec accepted:\n%s", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// Values split on commas and/or whitespace, comments strip to end of
// line, and scalars land in their fields.
func TestParseGrammar(t *testing.T) {
	spec, err := Parse(strings.NewReader(`
# a comment line
name = smoke
refs = 150            # trailing comment
workload = gcc,mcf libq   # mixed separators
policy = base dice
ber = 0, 1e-5
latency = full half
`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "smoke" || spec.Refs != 150 {
		t.Fatalf("scalars: name=%q refs=%d", spec.Name, spec.Refs)
	}
	if got := strings.Join(spec.Workloads, " "); got != "gcc mcf libq" {
		t.Fatalf("workloads = %q", got)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads x 2 policies x 2 BERs x 2 latencies; the base-policy,
	// BER-0 cells are their own baselines.
	if len(cells) != 24 {
		t.Fatalf("expanded to %d cells, want 24", len(cells))
	}
}

// Suite keywords expand to their catalogs, deduplicated first-wins
// against explicitly named workloads.
func TestParseSuiteKeywords(t *testing.T) {
	spec, err := Parse(strings.NewReader("workload = pr_twi gap\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 6 {
		t.Fatalf("gap suite with one overlap expanded to %d workloads: %v",
			len(spec.Workloads), spec.Workloads)
	}
	if spec.Workloads[0] != "pr_twi" {
		t.Fatalf("explicit name lost its first-seen position: %v", spec.Workloads)
	}
}

// Golden range expansions: "lo..hi [step N]" is pure shorthand for
// the enumerated values, on every integer axis, mixable with plain
// values on the same line.
func TestParseRangeExpansion(t *testing.T) {
	spec, err := Parse(strings.NewReader(`
workload = gcc
threshold = 24..48 step 4
capacity = 1..3
bw = 1 3..4
mlp = 1..8 step 3
scale = 8..12 step 2
`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// axisValues lists one field's distinct values over the requested
	// cells, in expansion order. The spec sets no policy, so only the
	// baselines Expand appends spell "base"; the threshold-36 cells are
	// their own baselines but still requested.
	axisValues := func(field func(experiments.CellSpec) int) []int {
		var out []int
		seen := map[int]bool{}
		for _, c := range cells {
			if v := field(c); c.Policy != "base" && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	intsEq := func(name string, got []int, want ...int) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s expanded to %v, want %v", name, got, want)
		}
	}
	intsEq("threshold", axisValues(func(c experiments.CellSpec) int { return c.Threshold }), 24, 28, 32, 36, 40, 44, 48)
	intsEq("capacity", axisValues(func(c experiments.CellSpec) int { return c.Capacity }), 1, 2, 3)
	intsEq("bw", axisValues(func(c experiments.CellSpec) int { return c.BW }), 1, 3, 4)
	intsEq("mlp", axisValues(func(c experiments.CellSpec) int { return c.MLP }), 1, 4, 7) // last value is the largest lo+k*N <= hi
	intsEq("scale", axisValues(func(c experiments.CellSpec) int { return int(c.Scale) }), 8, 10, 12)
	// 7 thresholds x 3^4 other-axis combinations. The baseline of each
	// combination of the four non-threshold axes is its threshold-36
	// cell (policy "" is base, and 36 the default), so none is appended.
	if len(cells) != 7*81 {
		t.Fatalf("expanded to %d cells, want %d", len(cells), 7*81)
	}
	// dicesweep's "N baseline cells": those threshold-36 cells.
	baselines := 0
	for _, c := range cells {
		if c.IsBaseline() {
			baselines++
			if c.Threshold != 36 {
				t.Fatalf("baseline cell %s is not a threshold-36 cell", c.Key())
			}
		}
	}
	if baselines != 81 {
		t.Fatalf("%d baseline cells, want 81", baselines)
	}
}

// Axis values that spell a default name the same cell as leaving the
// axis out: capacity 0 and 1, threshold 0 and 36 and mlp 6 expand to
// one DICE cell, plus its baseline.
func TestExpandCollapsesSpelledDefaults(t *testing.T) {
	spec, err := Parse(strings.NewReader("workload = gcc\npolicy = dice\ncapacity = 0 1\nthreshold = 0 36\nmlp = 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.CellSpec{Workload: "gcc", Policy: "dice", Refs: spec.Refs}
	if len(cells) != 2 || cells[0].Key() != want.Key() || cells[1].Key() != want.Baseline().Key() {
		t.Fatalf("expanded to %d cells %v, want %s and its baseline", len(cells), cells, want.Key())
	}
}

// A range spec and its enumerated equivalent expand to identical
// cells — same canonical keys, so memoization, results-log dedup and
// -resume treat them as the same sweep.
func TestParseRangeKeysMatchEnumerated(t *testing.T) {
	ranged, err := Parse(strings.NewReader("workload = gcc\npolicy = dice\nthreshold = 24..48 step 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	listed, err := Parse(strings.NewReader("workload = gcc\npolicy = dice\nthreshold = 24 32 40 48\n"))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ranged.Expand()
	if err != nil {
		t.Fatal(err)
	}
	lc, err := listed.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(rc) != len(lc) {
		t.Fatalf("ranged expands to %d cells, enumerated to %d", len(rc), len(lc))
	}
	for i := range rc {
		if rc[i].Key() != lc[i].Key() {
			t.Fatalf("cell %d key diverges: %q vs %q", i, rc[i].Key(), lc[i].Key())
		}
	}
}

// A parsed spec defaults refs so keys are always explicit.
func TestParseDefaultRefs(t *testing.T) {
	spec, err := Parse(strings.NewReader("workload = gcc\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Refs != DefaultRefs {
		t.Fatalf("refs defaulted to %d, want %d", spec.Refs, DefaultRefs)
	}
}

// Expansion crosses the axes, deduplicates repeated values by
// canonical key, and auto-appends exactly the missing baselines.
func TestExpand(t *testing.T) {
	spec, err := Parse(strings.NewReader(`
refs = 150
workload = gcc mcf
policy = dice dice tsi    # repeated value must not inflate the matrix
ber = 0 1e-5
`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 2 distinct policies x 2 BERs = 8 requested cells,
	// plus one base-policy baseline per workload = 10.
	if len(cells) != 10 {
		t.Fatalf("expanded to %d cells, want 10", len(cells))
	}
	seen := map[string]bool{}
	baselines := 0
	for _, c := range cells {
		key := c.Key()
		if seen[key] {
			t.Fatalf("duplicate cell %s", key)
		}
		seen[key] = true
		if c.Refs != 150 {
			t.Fatalf("cell %s lost the spec's refs", key)
		}
		if c.IsBaseline() {
			baselines++
		}
	}
	if baselines != 2 {
		t.Fatalf("%d baseline cells, want 2", baselines)
	}
	for _, c := range cells {
		if !seen[c.Baseline().Key()] {
			t.Fatalf("cell %s has no baseline in the matrix", c.Key())
		}
	}

	// Expansion is deterministic element-for-element.
	again, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("expansion not deterministic at %d", i)
		}
	}
}

// Every axis at two values, spelled out of canonical order where it
// can be, pins Expand's order: the cell count and a digest of every
// key in expansion order. A refactor of the axis machinery must leave
// both unchanged, or resumed sweeps and frontier exports would shift.
func TestExpandEveryAxisPinned(t *testing.T) {
	spec, err := Parse(strings.NewReader(`
refs = 300
workload = gcc
policy = dice base
org = knl alloy
threshold = 24..32 step 8
compress = fpc hybrid
ber = 1e-5, 0
fault-seed = 3 1
fault-policy = ecc none
capacity = 2 1
bw = 1 2
latency = half full
prefetch = wide128 none
mlp = 4 8
scale = 11 10
`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2^13 requested cells, of which the 4,096 at ber 0 are 1,024 cells:
	// at ber 0 the four fault-seed x fault-policy spellings name one
	// simulation. Plus one baseline per combination of the six axes a
	// baseline keeps (capacity, bw, latency, prefetch, mlp, scale).
	if len(cells) != 5184 {
		t.Fatalf("expanded to %d cells, want 5184", len(cells))
	}
	h := sha256.New()
	for _, c := range cells {
		h.Write([]byte(c.Key() + "\n"))
	}
	const want = "fabd0af9c2ea08bb82b872aef26d004d4458fc97fb0606934a83e90f5be5a585"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("expansion digest %s, want %s", got, want)
	}
}
