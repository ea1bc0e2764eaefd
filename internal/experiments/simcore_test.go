package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"dice/internal/obs"
	"dice/internal/sim"
)

// simcoreRefs is the sampled per-core reference budget for the
// differential sweep: large enough to cross the warm boundary and
// exercise contention, small enough that the cycle-stepped core's
// cycle-by-cycle scan stays affordable across the whole matrix.
const simcoreRefs = 1_200

// sampleCells picks a bounded, deterministic sample of an experiment's
// cell matrix: the first and last cell (distinct configs usually sit at
// the corners of the config x workload product).
func sampleCells(cells []Cell) []Cell {
	if len(cells) <= 2 {
		return cells
	}
	return []Cell{cells[0], cells[len(cells)-1]}
}

// TestEventCoreMatchesReference sweeps every experiment's cell configs
// (sampled) and asserts the discrete-event core and the cycle-stepped
// reference produce byte-identical Results — including the embedded
// dcache.Stats and fault.Stats — and byte-identical obs epoch exports.
func TestEventCoreMatchesReference(t *testing.T) {
	r := NewRunner(simcoreRefs)
	seen := make(map[string]bool)
	for _, e := range All() {
		if e.Cells == nil {
			continue // fig4 runs no simulations
		}
		cells := e.Cells(r)
		if len(cells) == 0 {
			t.Fatalf("%s: no cells", e.ID)
		}
		for _, cell := range sampleCells(cells) {
			if seen[cell.Key] {
				continue
			}
			seen[cell.Key] = true
			cell := cell
			t.Run(e.ID+"/"+cell.Key, func(t *testing.T) {
				cfg := cell.Cfg
				cfg.RefsPerCore = simcoreRefs

				evOb := &obs.Observer{Rec: obs.NewRecorder(20_000)}
				evRes, _, err := sim.RunEventObserved(cfg, cell.W, evOb)
				if err != nil {
					t.Fatal(err)
				}
				refOb := &obs.Observer{Rec: obs.NewRecorder(20_000)}
				refRes, err := sim.RunReferenceObserved(cfg, cell.W, refOb)
				if err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(evRes, refRes) {
					t.Fatalf("results diverged\nevent: %+v\nref:   %+v", evRes, refRes)
				}
				if evRes.L4 != refRes.L4 {
					t.Fatal("dcache.Stats diverged")
				}
				if evRes.Fault != refRes.Fault {
					t.Fatal("fault.Stats diverged")
				}

				var evOut, refOut bytes.Buffer
				if err := obs.WriteEpochs(&evOut, map[string][]obs.Snapshot{cell.Key: evOb.Rec.Snapshots()}); err != nil {
					t.Fatal(err)
				}
				if err := obs.WriteEpochs(&refOut, map[string][]obs.Snapshot{cell.Key: refOb.Rec.Snapshots()}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(evOut.Bytes(), refOut.Bytes()) {
					t.Error("obs epoch exports differ")
				}
			})
		}
	}
	// 19 experiments contribute up to 2 corner cells each; corners shared
	// between experiments (base|mcf and friends) dedup away.
	if len(seen) < 15 {
		t.Fatalf("sampled only %d distinct cells — sweep shrank?", len(seen))
	}
}

// TestReportsBytesIdenticalAcrossCores renders full experiment reports
// on the event core and on the cycle-stepped reference core (through
// the runner's simulate hook) at worker counts 1 and 8, and requires
// byte-identical report text. This is the end-to-end form of the
// differential guarantee: the runner's memoization, worker pool, and
// report formatting all sit between the core and the bytes.
func TestReportsBytesIdenticalAcrossCores(t *testing.T) {
	for _, id := range []string{"metrics-demo", "ablate-index"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			render := func(reference bool) string {
				r := NewRunner(simcoreRefs)
				r.Workers = workers
				if reference {
					r.simulate = sim.RunReferenceObserved
				}
				return e.Run(r).String()
			}
			ev := render(false)
			cy := render(true)
			if ev != cy {
				t.Errorf("%s at workers=%d: event and cycle reports differ:\n%s",
					id, workers, firstDiff(ev, cy))
			}
		}
	}
}
