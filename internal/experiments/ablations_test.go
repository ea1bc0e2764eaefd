package experiments

import "testing"

func TestAblationIndexingOrdering(t *testing.T) {
	rep := report(t, tinyRunner(), "ablate-index")
	if len(rep.Rows) < 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// NSI must be no better than DICE on average (static spatial indexing
	// has no incompressible fallback).
	var nsi, dice float64
	for _, row := range rep.Rows {
		if row.Name == "ALL26" {
			nsi, dice = row.Get("NSI"), row.Get("DICE")
		}
	}
	if nsi > dice {
		t.Fatalf("NSI (%.3f) should not beat DICE (%.3f)", nsi, dice)
	}
}

func TestAblationCompressorHybridCompetitive(t *testing.T) {
	rep := report(t, tinyRunner(), "ablate-compress")
	var f, b, h float64
	for _, row := range rep.Rows {
		if row.Name == "GMEAN" {
			f, b, h = row.Get("FPC-only"), row.Get("BDI-only"), row.Get("Hybrid")
		}
	}
	if h <= 0 || f <= 0 || b <= 0 {
		t.Fatal("missing gmean values")
	}
	if h < f-0.05 || h < b-0.05 {
		t.Fatalf("hybrid (%.3f) should be at least competitive (fpc %.3f, bdi %.3f)", h, f, b)
	}
}

func TestAblationMLPPersistentBenefit(t *testing.T) {
	rep := report(t, tinyRunner(), "ablate-mlp")
	for _, row := range rep.Rows {
		if row.Name != "GMEAN" {
			continue
		}
		for _, col := range rep.Columns {
			if row.Get(col) < 1.0 {
				t.Fatalf("DICE benefit lost at %s: %.3f", col, row.Get(col))
			}
		}
		return
	}
	t.Fatal("no GMEAN row")
}
