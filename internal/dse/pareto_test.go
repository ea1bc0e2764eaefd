package dse

import (
	"bytes"
	"strings"
	"testing"

	"dice/internal/experiments"
	"dice/internal/serve"
)

// paretoFixture builds a two-cell-plus-baseline matrix with hand-set
// metrics: cellA dominates cellB on every objective.
func paretoFixture() ([]experiments.CellSpec, map[string]serve.CellResult) {
	base := experiments.CellSpec{Workload: "gcc", Policy: "base", Refs: 100}
	cellA := experiments.CellSpec{Workload: "gcc", Policy: "dice", Refs: 100}
	cellB := experiments.CellSpec{Workload: "gcc", Policy: "tsi", Refs: 100}
	results := map[string]serve.CellResult{
		base.Key():  {Key: base.Key(), Workload: "gcc", IPC: []float64{1, 1}, Energy: 100, EDP: 100},
		cellA.Key(): {Key: cellA.Key(), Workload: "gcc", IPC: []float64{1.5, 1.5}, Energy: 80, EDP: 60},
		cellB.Key(): {Key: cellB.Key(), Workload: "gcc", IPC: []float64{1.2, 1.2}, Energy: 90, EDP: 80, FaultUnrecovered: 3},
	}
	return []experiments.CellSpec{cellA, cellB, base}, results
}

// Speedup/energy/EDP normalize against the baseline cell, and a point
// beaten on every objective is off the frontier.
func TestFrontierDomination(t *testing.T) {
	cells, results := paretoFixture()
	points, err := Frontier(cells, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points, want 3", len(points))
	}
	byKey := map[string]Point{}
	for _, p := range points {
		byKey[p.Key] = p
	}
	a := byKey[cells[0].Key()]
	b := byKey[cells[1].Key()]
	base := byKey[cells[2].Key()]
	if a.Speedup != 1.5 || a.EnergyRel != 0.8 || a.EDPRel != 0.6 {
		t.Fatalf("cellA objectives = %+v", a)
	}
	if base.Speedup != 1 || base.EnergyRel != 1 || base.EDPRel != 1 {
		t.Fatalf("baseline not its own normalization point: %+v", base)
	}
	if !a.Frontier {
		t.Fatal("dominating point off the frontier")
	}
	if b.Frontier {
		t.Fatal("dominated point on the frontier")
	}
	if base.Frontier {
		t.Fatal("baseline (dominated by cellA) on the frontier")
	}
}

// Missing results (cell or baseline) are an incomplete sweep, not a
// silent hole in the export.
func TestFrontierRequiresCompleteResults(t *testing.T) {
	cells, results := paretoFixture()
	delete(results, cells[1].Key())
	if _, err := Frontier(cells, results); err == nil || !strings.Contains(err.Error(), "incomplete sweep") {
		t.Fatalf("missing result not reported: %v", err)
	}
}

// Frontier output order is (workload, key), independent of input
// order — the determinism the byte-equality bar rests on.
func TestFrontierDeterministicOrder(t *testing.T) {
	cells, results := paretoFixture()
	fwd, err := Frontier(cells, results)
	if err != nil {
		t.Fatal(err)
	}
	rev := append([]experiments.CellSpec{}, cells...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	back, err := Frontier(rev, results)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2, j1, j2 bytes.Buffer
	if err := WriteCSV(&b1, fwd); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b2, back); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&j1, fwd); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&j2, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) || !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("export bytes depend on cell input order")
	}
}

// Cell keys contain commas; the CSV export must quote them so the
// rows keep their seven columns.
func TestWriteCSVQuotesKeys(t *testing.T) {
	cells, results := paretoFixture()
	points, err := Frontier(cells, results)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d CSV lines, want header + 3", len(lines))
	}
	if !strings.HasPrefix(lines[1], `"`) {
		t.Fatalf("comma-bearing key not quoted: %s", lines[1])
	}
}
