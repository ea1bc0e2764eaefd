package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dice/internal/dcache"
	"dice/internal/dram"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// declaredRefs is the budget the whole-catalog tests run every
// declared cell at: small enough for ~600 cells in a few seconds.
const declaredRefs = 1_000

// sccTagProbes is the tag probes SCC adds to each L4 read and each
// install (dcache's sccExtraProbes, three per Section 7.3).
const sccTagProbes = 3

// sccTagBytes is the HBM transfer size of one SCC tag probe (dcache's
// sccTagBytes).
const sccTagBytes = 16

// declared is one runner for the whole-catalog tests, shared so each
// declared cell simulates once across them.
var declared = NewRunner(declaredRefs)

// TestDeclaredCellsConserve checks the accounting identities every
// simulation must satisfy, on every cell the catalog declares:
//   - every L3 miss is one L4 read;
//   - every L4 read is a hit or a miss;
//   - DICE splits each install into invariant, BAI or TSI, and no other
//     policy uses the split counters;
//   - every L4 probe is a read's first or second probe, plus SCC's tag
//     probes;
//   - on both DRAM devices every access is one row hit, miss or
//     conflict, and only conflicts are batched;
//   - HBM moves one TAD transfer (80B Alloy, 72B KNL) per access,
//     except SCC's 16-byte tag probes;
//   - main memory moves 64-byte lines only.
func TestDeclaredCellsConserve(t *testing.T) {
	var all []CellSpec
	seen := map[string]bool{}
	for _, e := range All() {
		for _, c := range e.Cells {
			if k := c.Key(); !seen[k] {
				seen[k] = true
				all = append(all, c)
			}
		}
	}
	res, err := declared.RunCells(context.Background(), all, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range all {
		r := res[c.Key()]
		l4 := r.L4
		if r.L3.Misses != l4.Reads {
			t.Errorf("%s: L3 misses %d != L4 reads %d", c.Label(), r.L3.Misses, l4.Reads)
		}
		if l4.ReadHits+l4.ReadMisses != l4.Reads {
			t.Errorf("%s: L4 read hits %d + misses %d != reads %d", c.Label(), l4.ReadHits, l4.ReadMisses, l4.Reads)
		}
		split := l4.InstallInvariant + l4.InstallBAI + l4.InstallTSI
		if r.Config.Policy == dcache.PolicyDICE {
			if split != l4.Installs {
				t.Errorf("%s: DICE install split %d+%d+%d != installs %d", c.Label(),
					l4.InstallInvariant, l4.InstallBAI, l4.InstallTSI, l4.Installs)
			}
		} else if split != 0 {
			t.Errorf("%s: %v records %d DICE index decisions", c.Label(), r.Config.Policy, split)
		}
		// SCC pays its skewed tag probes in Read, once per read, and in
		// Install (not Writeback), which the simulator calls once per L4
		// read miss.
		var tags uint64
		if r.Config.Policy == dcache.PolicySCC {
			tags = sccTagProbes * (l4.Reads + l4.ReadMisses)
		}
		probes := l4.Reads + l4.SecondProbes + tags
		if l4.Probes != probes {
			t.Errorf("%s: L4 probes %d != reads %d + second probes %d + SCC tag probes %d",
				c.Label(), l4.Probes, l4.Reads, l4.SecondProbes, probes-l4.Reads-l4.SecondProbes)
		}
		for _, d := range []struct {
			name string
			s    dram.Stats
		}{{"HBM", r.HBM}, {"DDR", r.DDR}} {
			if rows := d.s.RowHits + d.s.RowMisses + d.s.RowConflicts; rows != d.s.Accesses() {
				t.Errorf("%s: %s row hits %d + misses %d + conflicts %d != accesses %d", c.Label(), d.name,
					d.s.RowHits, d.s.RowMisses, d.s.RowConflicts, d.s.Accesses())
			}
			if d.s.RowBatched > d.s.RowConflicts {
				t.Errorf("%s: %s batched %d row conflicts of %d", c.Label(), d.name, d.s.RowBatched, d.s.RowConflicts)
			}
		}
		xfer := uint64(dcache.TransferBytes)
		if r.Config.Org == dcache.OrgKNL {
			xfer = dcache.KNLTransferBytes
		}
		if got, want := r.HBM.BytesRead+r.HBM.BytesWritten, xfer*(r.HBM.Accesses()-tags)+sccTagBytes*tags; got != want {
			t.Errorf("%s: HBM moved %d bytes in %d accesses (%d SCC tag probes), want %d", c.Label(),
				got, r.HBM.Accesses(), tags, want)
		}
		if r.DDR.BytesRead != 64*r.DDR.Reads || r.DDR.BytesWritten != 64*r.DDR.Writes {
			t.Errorf("%s: DDR moved %d bytes in %d reads and %d bytes in %d writes, not 64-byte lines", c.Label(),
				r.DDR.BytesRead, r.DDR.Reads, r.DDR.BytesWritten, r.DDR.Writes)
		}
	}
	if len(all) < 600 {
		t.Fatalf("the catalog declares %d distinct cells; the sweep shrank?", len(all))
	}
}

// TestDeclaredCellsCoverReports renders every experiment over results
// that hold only its own declared cells: a report that reads a cell its
// Cells list lacks panics instead of silently simulating it.
func TestDeclaredCellsCoverReports(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatal(p)
				}
			}()
			reps, err := RunAllCtx(context.Background(), declared, []Experiment{e}, CellSpec{})
			if err != nil {
				t.Fatal(err)
			}
			if len(reps) != 1 || reps[0].ID != e.ID {
				t.Fatalf("rendered %d reports", len(reps))
			}
		})
	}
}

// TestDeclaredCellsAreRead renders every experiment once per declared
// cell, over its declared results with that one cell removed: each
// render must panic on the missing cell, so an experiment cannot
// declare — and simulate — a cell its report never reads.
func TestDeclaredCellsAreRead(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			all, err := declared.RunCells(context.Background(), e.Cells, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range e.Cells {
				key := c.Key()
				res := make(map[string]sim.Result, len(all))
				for k, r := range all {
					if k != key {
						res[k] = r
					}
				}
				want := fmt.Sprintf("%s reads undeclared cell %s", e.ID, key)
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, want) {
							t.Errorf("without %s the report rendered (panic %q): the cell is declared but never read", c.Label(), msg)
						}
					}()
					e.Report(Results{exp: e.ID, res: res, r: declared})
				}()
			}
		})
	}
}

// TestUndeclaredCellPanics: reading a cell the experiment did not
// declare names the experiment and the cell's key.
func TestUndeclaredCellPanics(t *testing.T) {
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	v := Results{exp: "fig10", res: map[string]sim.Result{}}
	want := fmt.Sprintf("fig10 reads undeclared cell %s", at(scc, w).Key())
	defer func() {
		p := recover()
		if msg, _ := p.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not contain %q", p, want)
		}
	}()
	v.Get(scc, w)
}

// TestWithJob pins the job-wide rewrite: scale fills every cell; the
// fault settings fill only cells that sweep no faults of their own.
func TestWithJob(t *testing.T) {
	job := CellSpec{Scale: 12, BER: 1e-4, FaultSeed: 7, FaultPolicy: "ecc"}
	if got, want := dice.withJob(job), (CellSpec{Policy: "dice", Scale: 12, BER: 1e-4, FaultSeed: 7, FaultPolicy: "ecc"}); got != want {
		t.Errorf("dice under the job = %+v, want %+v", got, want)
	}
	for _, ber := range faultSweepBERs {
		d := faultDesign(dice, ber)
		want := d
		want.Scale = 12
		if got := d.withJob(job); got != want {
			t.Errorf("fault-sweep point at BER %g under the job = %+v, want %+v", ber, got, want)
		}
	}
	if got := dice.withJob(CellSpec{}); got != dice {
		t.Errorf("an empty job rewrote dice to %+v", got)
	}
}

// TestKeyCIP: the CIP field extends a key only when set, so every cell
// that leaves it at the default keeps its key.
func TestKeyCIP(t *testing.T) {
	c := CellSpec{Workload: "gcc", Policy: "dice"}
	if k := c.Key(); strings.Contains(k, "cip") {
		t.Errorf("default-CIP key %q names cip", k)
	}
	c.CIP = 512
	if k := c.Key(); !strings.HasSuffix(k, ",cip=512") {
		t.Errorf("key %q does not end in ,cip=512", k)
	}
	if cfg, err := c.Config(0); err != nil || cfg.CIPEntries != 512 {
		t.Errorf("Config = %+v, %v; want CIPEntries 512", cfg, err)
	}
	c.CIP = 3000
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "CIPEntries") {
		t.Errorf("Validate(CIP 3000) = %v, want a CIPEntries error", err)
	}
}
