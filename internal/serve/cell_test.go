package serve

import (
	"context"
	"math"
	"strings"
	"testing"

	"dice/internal/experiments"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// Admission-time validation of batch cell jobs: exactly one of
// Experiments/Cells, bounded batch size, per-cell vocabulary checks.
func TestJobSpecCellValidation(t *testing.T) {
	ok := experiments.CellSpec{Workload: "gcc", Policy: "dice", Refs: 100}
	cases := []struct {
		name    string
		spec    JobSpec
		wantErr string
	}{
		{"cells ok", JobSpec{Cells: []experiments.CellSpec{ok}}, ""},
		{"neither", JobSpec{}, "no experiments and no cells"},
		{"both", JobSpec{Experiments: []string{"fig10"}, Cells: []experiments.CellSpec{ok}}, "both experiments and cells"},
		{"no workload", JobSpec{Cells: []experiments.CellSpec{{Policy: "dice"}}}, "no workload"},
		{"unknown workload", JobSpec{Cells: []experiments.CellSpec{{Workload: "nosuch"}}}, "nosuch"},
		{"unknown policy", JobSpec{Cells: []experiments.CellSpec{{Workload: "gcc", Policy: "lru"}}}, "unknown policy"},
		{"unknown org", JobSpec{Cells: []experiments.CellSpec{{Workload: "gcc", Org: "weird"}}}, "unknown org"},
		{"unknown compress", JobSpec{Cells: []experiments.CellSpec{{Workload: "gcc", Compress: "lz4"}}}, "unknown compress"},
		{"unknown prefetch", JobSpec{Cells: []experiments.CellSpec{{Workload: "gcc", Prefetch: "stride"}}}, "prefetch"},
		{"bad ber", JobSpec{Cells: []experiments.CellSpec{{Workload: "gcc", BER: 2}}}, "ber"},
		{"threshold over 64", JobSpec{Cells: []experiments.CellSpec{{Workload: "gcc", Policy: "dice", Threshold: 100}}}, "Threshold 100"},
		{"negative refs", JobSpec{Cells: []experiments.CellSpec{{Workload: "gcc", Refs: -1}}}, "refs"},
		{"refs over the ceiling", JobSpec{Cells: []experiments.CellSpec{{Workload: "gcc", Refs: math.MaxInt}}}, "RefsPerCore"},
		{"job refs over the ceiling", JobSpec{Experiments: []string{"fig10"}, Refs: math.MaxInt}, "RefsPerCore"},
		{"cells with a job-wide fault rate", JobSpec{Cells: []experiments.CellSpec{ok}, FaultBER: 1e-4}, "set them per cell"},
		{"cells with a job-wide scale", JobSpec{Cells: []experiments.CellSpec{ok}, Scale: 12}, "set them per cell"},
		{"oversized batch", JobSpec{Cells: make([]experiments.CellSpec, MaxCellsPerJob+1)}, "exceed the per-job bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "oversized batch" {
				for i := range tc.spec.Cells {
					tc.spec.Cells[i] = ok
				}
			}
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// The wire round trip preserves every field, and a truncated final
// line (a cancelled batch's partial output) decodes to the complete
// prefix rather than an error.
func TestCellResultsEncodeDecodeRoundTrip(t *testing.T) {
	in := []CellResult{
		{Key: "w=gcc,p=dice", Workload: "gcc", IPC: []float64{0.5, 0.25}, Cycles: 99, Energy: 1.5, EDP: 3, FaultUnrecovered: 2},
		{Key: "w=mcf,p=tsi", Workload: "mcf", IPC: []float64{0.125}, Cycles: 7, L4HitRate: 0.5},
	}
	var b strings.Builder
	if err := EncodeCellResults(&b, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeCellResults(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Key != in[0].Key || out[1].L4HitRate != 0.5 || out[0].IPC[1] != 0.25 {
		t.Fatalf("round trip: %+v", out)
	}

	cut := b.String()
	cut = cut[:len(cut)-10] // tear the final record mid-JSON
	partial, err := DecodeCellResults(strings.NewReader(cut))
	if err == nil && len(partial) != 1 {
		t.Fatalf("torn final line decoded to %d results", len(partial))
	}
}

// A batch cell job's output is exactly the direct simulation's
// metrics snapshot, cell for cell in spec order — the equivalence
// that makes daemon-sharded sweeps byte-identical to local ones.
func TestRunSpecCellsMatchesDirectSim(t *testing.T) {
	cells := []experiments.CellSpec{
		{Workload: "gcc", Policy: "dice", Refs: 150},
		{Workload: "gcc", Policy: "base", Refs: 150},
		{Workload: "gcc", Policy: "dice", Refs: 150}, // duplicate key: memoized, still answered
	}
	out, err := RunSpec(context.Background(), JobSpec{Cells: cells, Workers: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCellResults(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("%d results for %d cells", len(got), len(cells))
	}
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for i, cs := range cells {
		cfg, err := cs.Config(0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		want := CellResultFrom(cs.Key(), res)
		if got[i].Key != want.Key || got[i].Cycles != want.Cycles || got[i].Energy != want.Energy {
			t.Fatalf("cell %d diverges from direct sim:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	if got[0].Key != got[2].Key || got[0].Cycles != got[2].Cycles {
		t.Fatal("duplicate cells answered differently")
	}
}
