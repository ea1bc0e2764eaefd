package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dice/internal/obs"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// The load-bearing tests for the parallel scheduler: simulations run
// through an N-worker pool must be byte-identical to the serial
// reference schedule, and singleflight memoization must collapse
// duplicate (config, workload) cells to exactly one execution.

func detWorkloads(t *testing.T) []workloads.Workload {
	t.Helper()
	var wls []workloads.Workload
	for _, name := range []string{"gcc", "soplex"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, w)
	}
	return wls
}

func detRunner(workers int) *Runner {
	r := NewRunner(4_000)
	r.Workers = workers
	return r
}

func TestDeterminismSerialVsPool(t *testing.T) {
	wls := detWorkloads(t)
	designs := []CellSpec{base, dice}
	matrix := cells(wls, designs...)

	serial := detRunner(1)
	a, err := serial.RunCells(context.Background(), matrix, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The pooled runner gets every cell twice in one submission: the
	// duplicates must ride singleflight, not re-simulate.
	pooled := detRunner(8)
	b, err := pooled.RunCells(context.Background(), append(matrix, matrix...), nil)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := pooled.Sims(), int64(len(matrix)); got != want {
		t.Fatalf("pool executed %d simulations for %d unique cells (singleflight broken)",
			got, want)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("serial and 8-worker results differ:\n%+v\nvs\n%+v", a, b)
	}

	// Report bytes must match too: assemble the same report from both
	// runners' memoized results.
	mini := func(r *Runner) string {
		rep := &Report{ID: "mini", Title: "determinism probe", Columns: []string{"DICE"}}
		for _, w := range wls {
			rep.AddRow(w.Name, w.Suite, sim.Speedup(runOne(r, at(base, w)), runOne(r, at(dice, w))))
		}
		rep.GroupGeoMeans()
		return rep.String()
	}
	if a, b := mini(serial), mini(pooled); a != b {
		t.Fatalf("serial and pooled reports differ:\n%s\nvs\n%s", a, b)
	}
}

// TestDeterminismRepeatWithinPool re-runs the same cells through the
// same pool and through a second pool; all three must agree exactly.
func TestDeterminismRepeatWithinPool(t *testing.T) {
	w := detWorkloads(t)[0]
	a := detRunner(8)
	pair := cells([]workloads.Workload{w}, base, dice)
	a.RunCells(context.Background(), pair, nil)
	first := runOne(a, at(dice, w))
	a.RunCells(context.Background(), pair, nil) // second pass: fully memoized
	second := runOne(a, at(dice, w))
	if !reflect.DeepEqual(first, second) {
		t.Fatal("repeat prefetch changed a memoized result")
	}
	if got, want := a.Sims(), int64(2); got != want {
		t.Fatalf("executed %d simulations, want %d", got, want)
	}

	b := detRunner(8)
	b.RunCells(context.Background(), pair, nil)
	if !reflect.DeepEqual(first, runOne(b, at(dice, w))) {
		t.Fatal("two pools disagree on the same cell")
	}
}

// TestRunConcurrentCallersSingleflight hammers RunCells from many
// goroutines with the same cell: one simulation, identical results for
// all.
func TestRunConcurrentCallersSingleflight(t *testing.T) {
	w := detWorkloads(t)[0]
	r := detRunner(8)
	const callers = 16
	results := make([]uint64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runOne(r, at(base, w)).Cycles
		}(i)
	}
	wg.Wait()
	if r.Sims() != 1 {
		t.Fatalf("%d concurrent callers executed %d simulations, want 1", callers, r.Sims())
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw %d cycles, caller 0 saw %d", i, results[i], results[0])
		}
	}
}

// TestPrefetchPanicPropagates: a panicking simulation must cancel the
// pool and re-panic in the caller, and later requests for the same key
// must re-panic rather than hang or return garbage. An invalid cell
// never gets that far: RunCells rejects it before anything runs.
func TestPrefetchPanicPropagates(t *testing.T) {
	w := detWorkloads(t)[0]
	r := detRunner(4)
	if _, err := r.RunCells(context.Background(), []CellSpec{at(CellSpec{Capacity: 99}, w)}, nil); err == nil {
		t.Fatal("RunCells accepted a cell sim.Config.Validate rejects")
	}
	if r.Sims() != 0 {
		t.Fatalf("an invalid cell ran %d simulations", r.Sims())
	}

	r.simulate = func(sim.Config, workloads.Workload, *obs.Observer) (sim.Result, error) {
		panic("simulation failed")
	}
	mustPanic := func(step string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", step)
			}
		}()
		fn()
	}
	cell := at(base, w)
	mustPanic("RunCells with a panicking simulation", func() { r.RunCells(context.Background(), cells([]workloads.Workload{w}, base, dice), nil) })
	mustPanic("waiting on the failed key", func() { runOne(r, cell) })
}
