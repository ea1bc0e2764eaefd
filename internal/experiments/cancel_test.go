package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dice/internal/workloads"
)

// Cancellation-latency tests: the daemon's per-job deadlines are only
// as tight as the runner's cancellation granularity, so these pin that
// a cancelled context is observed between individual simulation cells
// — not just between experiments. The testHookSimDone hook cancels at
// an exact point in the schedule, making the assertions deterministic.

// cancelCells builds a small multi-cell matrix (4 cells: 2 configs x
// 2 workloads) at a cheap reference budget.
func cancelCells(t *testing.T) []CellSpec {
	t.Helper()
	var wls []workloads.Workload
	for _, name := range []string{"gcc", "soplex"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, w)
	}
	return cells(wls, base, dice)
}

// A cancel fired right after the first cell must stop the serial
// fan-out before the second cell starts: exactly one simulation runs.
func TestRunCellsCancelsBetweenCells(t *testing.T) {
	r := NewRunner(2_000)
	r.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.testHookSimDone = func(string) { cancel() }

	res, err := r.RunCells(ctx, cancelCells(t), nil)

	if !errors.Is(err, context.Canceled) || len(res) != 1 {
		t.Fatalf("RunCells = %d results, %v; want the 1 completed cell and context.Canceled", len(res), err)
	}
	if got := r.Sims(); got != 1 {
		t.Fatalf("serial RunCells ran %d simulations after a cancel fired during cell 1; want 1 (cancellation must be observed between cells)", got)
	}
}

// With a worker pool, a cancel fired during the first completed cell
// bounds further starts to the cells already in flight: at most
// `workers` simulations total, never the full matrix.
func TestRunCellsCancelBoundsInFlight(t *testing.T) {
	const workers = 2
	r := NewRunner(2_000)
	r.Workers = workers
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	r.testHookSimDone = func(string) {
		if !fired.Swap(true) {
			cancel()
		}
	}

	cs := cancelCells(t)
	r.RunCells(ctx, cs, nil)

	if got := r.Sims(); got > workers {
		t.Fatalf("pooled RunCells ran %d simulations after an early cancel; want <= %d (only in-flight cells may finish)", got, workers)
	}
	if got := r.Sims(); int(got) == len(cs) {
		t.Fatalf("cancel was ignored: all %d cells simulated", len(cs))
	}
}

// RunAllCtx must observe a cancel that lands mid-simulation before
// rendering any report: the partial-run contract is "reports already
// rendered", and a report whose cells were skipped is never rendered.
func TestRunAllCtxCancelDuringPrefetch(t *testing.T) {
	r := NewRunner(2_000)
	r.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.testHookSimDone = func(string) { cancel() }

	exps := []Experiment{
		mustExperiment(t, "ablate-index"),
		mustExperiment(t, "table4"),
	}
	reports, err := RunAllCtx(ctx, r, exps, CellSpec{})

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAllCtx error = %v, want context.Canceled", err)
	}
	if len(reports) != 0 {
		t.Fatalf("RunAllCtx assembled %d reports after a cancel during the first cell; want 0", len(reports))
	}
	if got := r.Sims(); got != 1 {
		t.Fatalf("RunAllCtx ran %d simulations after a cancel during cell 1; want 1", got)
	}
}

// An already-cancelled context runs nothing at all.
func TestRunAllCtxPreCancelled(t *testing.T) {
	r := NewRunner(2_000)
	r.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	reports, err := RunAllCtx(ctx, r, []Experiment{mustExperiment(t, "ablate-index")}, CellSpec{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAllCtx error = %v, want context.Canceled", err)
	}
	if len(reports) != 0 || r.Sims() != 0 {
		t.Fatalf("pre-cancelled RunAllCtx assembled %d reports and ran %d sims; want 0 and 0",
			len(reports), r.Sims())
	}
}

func mustExperiment(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
