package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dice/internal/sim"
)

// The fault sweep must be reproducible at any worker count: the fault
// stream is tick-hashed per simulation, never shared across goroutines.
func TestFaultSweepDeterministicAcrossWorkers(t *testing.T) {
	a := report(t, detRunner(1), "fault-sweep").String()
	b := report(t, detRunner(8), "fault-sweep").String()
	if a != b {
		t.Fatalf("fault-sweep differs between 1 and 8 workers:\n%s\nvs\n%s", a, b)
	}
}

// BER=0 must be bit-identical to a run with fault injection absent —
// the guarantee that keeps the existing goldens stable, and the reason
// CellSpec's normal form clears FaultSeed and FaultPolicy at BER 0. The
// fault fields go onto the sim.Config directly, past the normal form,
// so what ignores them is the simulator: the fault sweep's own
// spelling and seed 1 with policy none alike.
func TestFaultSweepZeroBERMatchesCleanRun(t *testing.T) {
	cfg, w, err := at(dice, detWorkloads(t)[0]).resolve(4_000)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sim.Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		seed   uint64
		policy string
	}{{faultSweepSeed, "ecc+quarantine"}, {1, "none"}} {
		zcfg := cfg
		zcfg.FaultSeed, zcfg.FaultPolicy = f.seed, f.policy
		zero, err := sim.Run(zcfg, w)
		if err != nil {
			t.Fatal(err)
		}
		// The configs differ only in the inert fault fields; scrub those
		// before comparing so any behavioral difference stands out alone.
		zero.Config = clean.Config
		if !reflect.DeepEqual(clean, zero) {
			t.Fatalf("BER=0 seed %d policy %s differs from the fault-free run:\n%+v\nvs\n%+v",
				f.seed, f.policy, clean, zero)
		}
	}
}

// The sweep's reason to exist: compression amplifies faults, so the
// compressed designs must lose more of their clean-run speedup than the
// uncompressed baseline at the harsh end of the sweep.
func TestFaultSweepDegradationOrdering(t *testing.T) {
	rep := report(t, sharedTiny, "fault-sweep")
	get := func(rowName, col string) float64 {
		for _, row := range rep.Rows {
			if row.Name == rowName {
				return row.Get(col)
			}
		}
		t.Fatalf("row %q missing from:\n%s", rowName, rep.String())
		return 0
	}
	rel := func(col string) float64 { return get("ber=0.003", col) / get("ber=0", col) }
	base, tsi, dice := rel("base"), rel("tsi"), rel("dice")
	if base <= 0 {
		t.Fatalf("degenerate baseline ratio %v", base)
	}
	if tsi >= base || dice >= base {
		t.Fatalf("compressed designs must degrade faster than base: base=%.4f tsi=%.4f dice=%.4f",
			base, tsi, dice)
	}
	if !strings.Contains(strings.Join(rep.Notes, "\n"), "quarantined-sets=") {
		t.Fatalf("notes lack reliability counters:\n%s", rep.String())
	}
}

// Cancellation is cooperative at cell granularity: a pre-cancelled
// context runs nothing and surfaces the context error with whatever
// reports were already assembled (none, here).
func TestRunAllCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := detRunner(4)
	reports, err := RunAllCtx(ctx, r, []Experiment{mustByID(t, "fig10")}, CellSpec{})
	if err == nil {
		t.Fatal("cancelled RunAllCtx reported no error")
	}
	if len(reports) != 0 {
		t.Fatalf("cancelled RunAllCtx assembled %d reports", len(reports))
	}
	if r.Sims() != 0 {
		t.Fatalf("cancelled RunAllCtx executed %d simulations", r.Sims())
	}
}

func mustByID(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
