package experiments

import (
	"context"
	"strings"
	"testing"

	"dice/internal/sim"
	"dice/internal/workloads"
)

// sharedTiny is one memoized runner for the whole test package: the
// baseline and DICE runs that almost every experiment needs execute only
// once. Shape assertions are loose at this size (the full-size run
// happens in dicebench / bench_test.go).
var sharedTiny = NewRunner(15_000)

func tinyRunner() *Runner { return sharedTiny }

// report renders experiment id on r with no job-wide settings.
func report(t testing.TB, r *Runner, id string) *Report {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := RunAllCtx(context.Background(), r, []Experiment{e}, CellSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return reps[0]
}

// at is design d on workload w.
func at(d CellSpec, w workloads.Workload) CellSpec {
	d.Workload = w.Name
	return d
}

// runOne simulates (or recalls) one cell on r. It panics on an invalid
// cell, so goroutines may call it.
func runOne(r *Runner, c CellSpec) sim.Result {
	res, err := r.RunCells(context.Background(), []CellSpec{c}, nil)
	if err != nil {
		panic(err)
	}
	return res[c.Key()]
}

func findRow(t *testing.T, rep *Report, name string) Row {
	t.Helper()
	for _, r := range rep.Rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("report %s has no row %q", rep.ID, name)
	return Row{}
}

func TestAllRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Report == nil {
			t.Fatalf("experiment %+v incomplete", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	want := []string{"fig1", "fig4", "fig7", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "table4", "table5", "table6", "table7",
		"table8", "cip"}
	for _, id := range want {
		if !ids[id] {
			t.Fatalf("missing experiment %q", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig10"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestByIDErrorListsAllIDs parses the "(have ...)" list out of the
// unknown-id error and checks it names exactly the 20 registered
// experiments — the message is the CLI user's discovery surface.
func TestByIDErrorListsAllIDs(t *testing.T) {
	if n := len(All()); n != 20 {
		t.Fatalf("registry has %d experiments, want 20", n)
	}
	_, err := ByID("nope")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	msg := err.Error()
	open := strings.Index(msg, "(have ")
	if open < 0 || !strings.HasSuffix(msg, ")") {
		t.Fatalf("error message %q lacks the (have ...) id list", msg)
	}
	listed := map[string]bool{}
	for _, id := range strings.Split(msg[open+len("(have "):len(msg)-1], ", ") {
		listed[id] = true
	}
	for _, e := range All() {
		if !listed[e.ID] {
			t.Errorf("error message missing experiment %q: %s", e.ID, msg)
		}
	}
	if len(listed) != len(All()) {
		t.Errorf("error message lists %d ids, registry has %d", len(listed), len(All()))
	}
}

func TestFig04CompressibilityShape(t *testing.T) {
	rep := report(t, tinyRunner(), "fig4")
	// Monotonicity: <=32 implies <=36 for every workload.
	for _, row := range rep.Rows {
		if row.Get("Single<=32") > row.Get("Single<=36")+1e-9 {
			t.Fatalf("%s: <=32 fraction exceeds <=36", row.Name)
		}
	}
	gcc := findRow(t, rep, "gcc")
	libq := findRow(t, rep, "libq")
	if gcc.Get("Double<=68") < 0.5 {
		t.Fatalf("gcc pair compressibility = %.2f, want high", gcc.Get("Double<=68"))
	}
	if libq.Get("Double<=68") > 0.35 {
		t.Fatalf("libq pair compressibility = %.2f, want low", libq.Get("Double<=68"))
	}
	// Paper: ~52% of pairs fit on average; allow a generous band.
	all := findRow(t, rep, "ALL26")
	if avg := all.Get("Double<=68"); avg < 0.35 || avg > 0.75 {
		t.Fatalf("average pair compressibility = %.2f, want ~0.5", avg)
	}
}

func TestFig10Shape(t *testing.T) {
	rep := report(t, tinyRunner(), "fig10")
	all := findRow(t, rep, "ALL26")
	tsi, bai, dice := all.Get("TSI"), all.Get("BAI"), all.Get("DICE")
	if !(dice > tsi) {
		t.Fatalf("DICE (%.3f) must beat TSI (%.3f) on average", dice, tsi)
	}
	if !(dice > bai) {
		t.Fatalf("DICE (%.3f) must beat BAI (%.3f) on average", dice, bai)
	}
	if dice < 1.05 {
		t.Fatalf("DICE average %.3f, want a clear speedup", dice)
	}
	// Per-workload crossovers: BAI must lose on libq and win on gcc;
	// DICE must not degrade either.
	libq := findRow(t, rep, "libq")
	if libq.Get("BAI") > 0.85 {
		t.Fatalf("libq BAI = %.3f, want thrashing slowdown", libq.Get("BAI"))
	}
	if libq.Get("DICE") < 0.95 {
		t.Fatalf("libq DICE = %.3f, must not degrade", libq.Get("DICE"))
	}
	gcc := findRow(t, rep, "gcc")
	if gcc.Get("BAI") < 1.02 {
		t.Fatalf("gcc BAI = %.3f, want bandwidth win", gcc.Get("BAI"))
	}
}

func TestFig11IndexSplit(t *testing.T) {
	rep := report(t, tinyRunner(), "fig11")
	for _, row := range rep.Rows {
		inv := row.Get("Invariant")
		sum := inv + row.Get("BAI") + row.Get("TSI")
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s: fractions sum to %.3f", row.Name, sum)
		}
		// Exactly half of lines are invariant by construction; installs
		// sample that population, so expect ~0.5.
		if inv < 0.3 || inv > 0.7 {
			t.Fatalf("%s: invariant fraction %.2f far from 0.5", row.Name, inv)
		}
	}
}

func TestTable04ThresholdColumns(t *testing.T) {
	rep := report(t, tinyRunner(), "table4")
	g := findRow(t, rep, "GMEAN26")
	for _, col := range []string{"<=32B", "<=36B", "<=40B"} {
		if g.Get(col) <= 0 {
			t.Fatalf("missing column %s", col)
		}
	}
	// 36B must be at least competitive with the neighbors.
	if g.Get("<=36B") < g.Get("<=32B")-0.05 || g.Get("<=36B") < g.Get("<=40B")-0.05 {
		t.Fatalf("36B threshold (%.3f) should be near-best (32B %.3f, 40B %.3f)",
			g.Get("<=36B"), g.Get("<=32B"), g.Get("<=40B"))
	}
}

func TestTable05CapacityOrdering(t *testing.T) {
	rep := report(t, tinyRunner(), "table5")
	g := findRow(t, rep, "GMEAN26")
	tsi, bai, dice := g.Get("TSI"), g.Get("BAI"), g.Get("DICE")
	if tsi < 1.0 || bai < 1.0 || dice < 1.0 {
		t.Fatalf("compression must not shrink capacity: %.2f %.2f %.2f", tsi, bai, dice)
	}
	// Spatial-indexing designs (with pair tag/base sharing) must hold
	// more than capacity-only TSI compression.
	if max := maxf(bai, dice); max <= tsi {
		t.Fatalf("BAI/DICE (%.2f) should exceed TSI capacity (%.2f)", max, tsi)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestTable06L3HitRate(t *testing.T) {
	rep := report(t, tinyRunner(), "table6")
	g := findRow(t, rep, "GMEAN26")
	if g.Get("DICE") <= g.Get("BASE") {
		t.Fatalf("DICE must raise L3 hit rate: %.3f vs %.3f",
			g.Get("DICE"), g.Get("BASE"))
	}
}

func TestTable07PrefetchOrdering(t *testing.T) {
	rep := report(t, tinyRunner(), "table7")
	g := findRow(t, rep, "GMEAN26")
	if g.Get("DICE") <= g.Get("128B-PF") || g.Get("DICE") <= g.Get("Nextline-PF") {
		t.Fatalf("DICE (%.3f) must beat prefetch-only designs (%.3f / %.3f)",
			g.Get("DICE"), g.Get("128B-PF"), g.Get("Nextline-PF"))
	}
}

func TestFig15SCCLosesToDICE(t *testing.T) {
	rep := report(t, tinyRunner(), "fig15")
	all := findRow(t, rep, "ALL26")
	if all.Get("SCC") >= all.Get("DICE") {
		t.Fatalf("SCC (%.3f) must underperform DICE (%.3f)",
			all.Get("SCC"), all.Get("DICE"))
	}
	if all.Get("SCC") >= 1.0 {
		t.Fatalf("SCC average %.3f, want a slowdown", all.Get("SCC"))
	}
}

func TestFig13NoDegradation(t *testing.T) {
	rep := report(t, tinyRunner(), "fig13")
	for _, row := range rep.Rows {
		if s := row.Get("DICE"); s < 0.9 {
			t.Fatalf("%s degraded to %.3f under DICE", row.Name, s)
		}
	}
}

func TestFig14EnergyShape(t *testing.T) {
	rep := report(t, tinyRunner(), "fig14")
	dice := findRow(t, rep, "dice")
	base := findRow(t, rep, "base")
	if base.Get("EDP") != 1.0 || base.Get("Energy") != 1.0 {
		t.Fatal("baseline row must be the normalization unit")
	}
	if dice.Get("EDP") >= 1.0 {
		t.Fatalf("DICE EDP = %.3f, must improve on baseline", dice.Get("EDP"))
	}
	if dice.Get("Performance") <= 1.0 {
		t.Fatalf("DICE performance = %.3f", dice.Get("Performance"))
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(5_000)
	w := workloads.Rate16()[4] // gcc
	a := runOne(r, at(base, w))
	b := runOne(r, at(base, w))
	if a.Cycles != b.Cycles {
		t.Fatal("memoized result differs")
	}
	if n := r.Sims(); n != 1 {
		t.Fatalf("two runs of one cell executed %d simulations, want 1", n)
	}
}

func TestFig07BAISwingsWiderThanTSI(t *testing.T) {
	rep := report(t, tinyRunner(), "fig7")
	// TSI never degrades any workload (capacity-only); BAI must show
	// both a winner and a loser.
	var baiMin, baiMax = 10.0, 0.0
	for _, row := range rep.Rows {
		if row.Suite == "" {
			continue
		}
		if v := row.Get("TSI"); v < 0.95 {
			t.Fatalf("%s: TSI degraded to %.3f", row.Name, v)
		}
		if v := row.Get("BAI"); v > 0 {
			if v < baiMin {
				baiMin = v
			}
			if v > baiMax {
				baiMax = v
			}
		}
	}
	if baiMin > 0.9 || baiMax < 1.1 {
		t.Fatalf("BAI swings [%.2f, %.2f] too narrow; expected wins and losses",
			baiMin, baiMax)
	}
}

func TestFig12KNLTracksAlloy(t *testing.T) {
	rep := report(t, tinyRunner(), "fig12")
	all := findRow(t, rep, "ALL26")
	knl, alloy := all.Get("DICE-KNL"), all.Get("DICE-Alloy")
	if knl <= 1.0 {
		t.Fatalf("KNL DICE = %.3f, must still speed up", knl)
	}
	// The paper's gap is ~1.5 points; allow a loose band but KNL should
	// not beat Alloy by a margin (it only loses the neighbor-tag trick).
	if knl > alloy*1.05 {
		t.Fatalf("KNL (%.3f) should not beat Alloy (%.3f)", knl, alloy)
	}
}

func TestFig01PotentialOrdering(t *testing.T) {
	rep := report(t, tinyRunner(), "fig1")
	all := findRow(t, rep, "ALL26")
	cap2, bw2, both := all.Get("2xCap"), all.Get("2xBW"), all.Get("2xBoth")
	if cap2 < 1.0 || bw2 < 1.0 {
		t.Fatalf("idealized caches must not slow down: %.3f %.3f", cap2, bw2)
	}
	if both < cap2*0.98 || both < bw2*0.98 {
		t.Fatalf("2xBoth (%.3f) must dominate its parts (%.3f, %.3f)",
			both, cap2, bw2)
	}
}

func TestTable08DICEHelpsEveryConfiguration(t *testing.T) {
	rep := report(t, tinyRunner(), "table8")
	g := findRow(t, rep, "GMEAN26")
	for _, col := range rep.Columns {
		if v := g.Get(col); v < 1.0 {
			t.Fatalf("DICE on %s = %.3f, must not degrade", col, v)
		}
	}
	// 2x bandwidth amplifies DICE (paper: +24.5% vs +19.0%); 2x capacity
	// dampens it (+13.2%).
	if g.Get("2xCap") > g.Get("Base(1GB)") {
		t.Fatalf("2x capacity should dampen DICE: %.3f vs %.3f",
			g.Get("2xCap"), g.Get("Base(1GB)"))
	}
}

func TestCIPAccuracyExperiment(t *testing.T) {
	rep := report(t, tinyRunner(), "cip")
	avg := findRow(t, rep, "AVG26")
	small, large := avg.Get("512"), avg.Get("8192")
	if small < 0.7 || small > 1 || large < 0.7 || large > 1 {
		t.Fatalf("accuracies out of range: %.3f / %.3f", small, large)
	}
	if large < small-0.02 {
		t.Fatalf("larger LTT (%.3f) should not be clearly worse than smaller (%.3f)",
			large, small)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Columns: []string{"A", "B"}}
	rep.AddRow("w1", workloads.SuiteRate, 1.5, 2.5)
	rep.Notes = append(rep.Notes, "hello")
	s := rep.String()
	for _, want := range []string{"== x: t ==", "w1", "1.500", "2.500", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report string missing %q:\n%s", want, s)
		}
	}
}

func TestAddRowTooManyValuesPanics(t *testing.T) {
	rep := &Report{Columns: []string{"A", "B"}}
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow silently accepted more values than columns")
		}
	}()
	rep.AddRow("w", workloads.SuiteRate, 1, 2, 3)
}

func TestAddRowFewerValuesAllowed(t *testing.T) {
	rep := &Report{Columns: []string{"A", "B"}}
	rep.AddRow("w", workloads.SuiteRate, 1.5)
	if got := rep.Rows[0].Get("A"); got != 1.5 {
		t.Fatalf("A = %v", got)
	}
	if got := rep.Rows[0].Get("B"); got != 0 {
		t.Fatalf("missing column B reads %v, want 0", got)
	}
}

func TestGroupGeoMeans(t *testing.T) {
	rep := &Report{Columns: []string{"V"}}
	rep.AddRow("a", workloads.SuiteRate, 2.0)
	rep.AddRow("b", workloads.SuiteRate, 8.0)
	rep.AddRow("c", workloads.SuiteGAP, 1.0)
	rep.GroupGeoMeans()
	rate := findRow(t, rep, "RATE")
	if rate.Get("V") != 4.0 {
		t.Fatalf("RATE geomean = %v, want 4", rate.Get("V"))
	}
	all := findRow(t, rep, "ALL26")
	if all.Get("V") < 2.5 || all.Get("V") > 2.6 {
		t.Fatalf("ALL26 geomean = %v, want ~2.52", all.Get("V"))
	}
}
