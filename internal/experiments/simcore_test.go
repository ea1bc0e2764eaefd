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
// workload-major cell matrix in two passes. Pass 0 takes the first and
// last cell (distinct configs usually sit at the corners of the config
// x workload product); pass 1 takes every cell on the last workload, so
// each design the experiment declares runs at least once.
func sampleCells(cells []CellSpec, pass int) []CellSpec {
	if len(cells) <= 2 {
		return cells
	}
	last := len(cells) - 1
	if pass == 0 {
		return []CellSpec{cells[0], cells[last]}
	}
	i := last
	for i > 0 && cells[i-1].Workload == cells[last].Workload {
		i--
	}
	return cells[i:]
}

// TestEventCoreMatchesReference sweeps every experiment's cell configs
// (sampled) and asserts the discrete-event core and the cycle-stepped
// reference produce byte-identical Results — including the embedded
// dcache.Stats and fault.Stats — and byte-identical obs epoch exports.
func TestEventCoreMatchesReference(t *testing.T) {
	seen := make(map[string]bool)
	for pass := 0; pass < 2; pass++ {
		for _, e := range All() {
			if e.ID == "fig4" {
				continue // fig4 runs no simulations
			}
			if len(e.Cells) == 0 {
				t.Fatalf("%s: no cells", e.ID)
			}
			for _, cell := range sampleCells(e.Cells, pass) {
				key := cell.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				t.Run(e.ID+"/"+cell.Label(), func(t *testing.T) {
					cfg, w, err := cell.resolve(simcoreRefs)
					if err != nil {
						t.Fatal(err)
					}

					var evSnaps, refSnaps []obs.Snapshot
					evOb := &obs.Observer{Rec: obs.NewRecorder(20_000, func(s obs.Snapshot) { evSnaps = append(evSnaps, s) })}
					evRes, err := sim.RunObserved(cfg, w, evOb)
					if err != nil {
						t.Fatal(err)
					}
					refOb := &obs.Observer{Rec: obs.NewRecorder(20_000, func(s obs.Snapshot) { refSnaps = append(refSnaps, s) })}
					refRes, err := sim.RunReferenceObserved(cfg, w, refOb)
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
					if err := obs.WriteEpochs(&evOut, map[string][]obs.Snapshot{key: evSnaps}); err != nil {
						t.Fatal(err)
					}
					if err := obs.WriteEpochs(&refOut, map[string][]obs.Snapshot{key: refSnaps}); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(evOut.Bytes(), refOut.Bytes()) {
						t.Error("obs epoch exports differ")
					}
				})
			}
		}
	}
	// 19 experiments contribute their corner cells and their last
	// workload's cells; cells shared between experiments (base|mcf,
	// dice|cc_twi and friends) dedup away, each named after the first
	// experiment and pass to sample it. Every compression algorithm
	// must be among them.
	for _, alg := range []string{"fpc", "bdi"} {
		if !seen[CellSpec{Workload: "cc_twi", Policy: "dice", Compress: alg}.Key()] {
			t.Errorf("the sample lacks the compress=%s cell", alg)
		}
	}
	if len(seen) < 40 {
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
		for _, workers := range []int{1, 8} {
			render := func(reference bool) string {
				r := NewRunner(simcoreRefs)
				r.Workers = workers
				if reference {
					r.simulate = sim.RunReferenceObserved
				}
				return report(t, r, id).String()
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
