package experiments

import (
	"context"
	"testing"
)

// TestSpelledDefaultsShareOneKey: every way of spelling an axis's
// default names one cell, so each group of synonyms gets one key and
// one simulation through RunCells, and the group's IsBaseline agrees.
// Scale and Refs are not defaults — their zero is the job's or the
// runner's value — so 0 and the value they usually resolve to keep
// distinct keys.
func TestSpelledDefaultsShareOneKey(t *testing.T) {
	cell := CellSpec{Workload: "gcc", Policy: "dice", Refs: 300, Scale: 12}
	with := func(c CellSpec, f func(*CellSpec)) CellSpec {
		f(&c)
		return c
	}
	base := cell.Baseline()
	faulty := with(cell, func(c *CellSpec) { c.BER, c.FaultSeed = 1e-4, 1 })
	groups := []struct {
		name     string
		cells    []CellSpec
		baseline bool
	}{
		{"policy", []CellSpec{
			with(base, func(c *CellSpec) { c.Policy = "" }),
			base,
		}, true},
		{"org", []CellSpec{cell, with(cell, func(c *CellSpec) { c.Org = "alloy" })}, false},
		{"threshold", []CellSpec{cell, with(cell, func(c *CellSpec) { c.Threshold = 36 })}, false},
		{"compress", []CellSpec{cell, with(cell, func(c *CellSpec) { c.Compress = "hybrid" })}, false},
		{"fault policy at ber>0", []CellSpec{
			faulty,
			with(faulty, func(c *CellSpec) { c.FaultPolicy = "ecc+quarantine" }),
			with(faulty, func(c *CellSpec) { c.FaultPolicy = "quarantine" }),
		}, false},
		{"capacity", []CellSpec{cell, with(cell, func(c *CellSpec) { c.Capacity = 1 })}, false},
		{"bw", []CellSpec{cell, with(cell, func(c *CellSpec) { c.BW = 1 })}, false},
		{"prefetch", []CellSpec{cell, with(cell, func(c *CellSpec) { c.Prefetch = "none" })}, false},
		{"mlp", []CellSpec{cell, with(cell, func(c *CellSpec) { c.MLP = 6 })}, false},
		{"cip", []CellSpec{cell, with(cell, func(c *CellSpec) { c.CIP = 2048 })}, false},
		{"fault fields at ber 0", []CellSpec{
			cell,
			with(cell, func(c *CellSpec) { c.FaultSeed = 1 }),
			with(cell, func(c *CellSpec) { c.FaultPolicy = "none" }),
			with(cell, func(c *CellSpec) { c.FaultSeed, c.FaultPolicy = 0xD1CE, "ecc+quarantine" }),
			with(cell, func(c *CellSpec) { c.FaultSeed, c.FaultPolicy = 1, "ecc" }),
		}, false},
		{"every default spelled at once", []CellSpec{cell, with(cell, func(c *CellSpec) {
			c.Org, c.Threshold, c.Compress, c.FaultSeed, c.FaultPolicy = "alloy", 36, "hybrid", 1, "quarantine"
			c.Capacity, c.BW, c.Prefetch, c.MLP, c.CIP = 1, 1, "none", 6, 2048
		})}, false},
		{"a spelled-out base cell is its own baseline", []CellSpec{
			base,
			with(cell, func(c *CellSpec) { c.Policy, c.Org, c.Threshold, c.MLP = "", "alloy", 36, 6 }),
		}, true},
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			key := g.cells[0].Key()
			for _, c := range g.cells[1:] {
				if c.Key() != key {
					t.Fatalf("%+v has key\n%s\nwant\n%s", c, c.Key(), key)
				}
			}
			for _, c := range g.cells {
				if c.IsBaseline() != g.baseline {
					t.Fatalf("%+v: IsBaseline = %v, want %v", c, c.IsBaseline(), g.baseline)
				}
			}
			r := NewRunner(0)
			r.Workers = 2
			res, err := r.RunCells(context.Background(), g.cells, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.Sims() != 1 || len(res) != 1 {
				t.Fatalf("%d spellings ran %d simulations for %d results, want 1", len(g.cells), r.Sims(), len(res))
			}
		})
	}
	for _, pair := range [][2]CellSpec{
		{with(cell, func(c *CellSpec) { c.Scale = 0 }), with(cell, func(c *CellSpec) { c.Scale = 10 })},
		{with(cell, func(c *CellSpec) { c.Refs = 0 }), cell},
	} {
		if pair[0].Key() == pair[1].Key() {
			t.Errorf("%+v and %+v share key %s; the zero must stay the job's value", pair[0], pair[1], pair[0].Key())
		}
	}
}
