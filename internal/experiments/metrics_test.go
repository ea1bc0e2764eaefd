package experiments

import (
	"bytes"
	"context"
	"maps"
	"reflect"
	"sync"
	"testing"

	"dice/internal/obs"
)

// metricsRunner is a detRunner whose Observe hook attaches an epoch
// recorder (every 25000 cycles) to each executed simulation. snaps
// returns the recorded series keyed by CellSpec.Key, and calls counts
// the Observe calls.
func metricsRunner(workers int) (r *Runner, snaps func() map[string][]obs.Snapshot, calls func() int) {
	r = detRunner(workers)
	var (
		mu     sync.Mutex
		series = map[string][]obs.Snapshot{}
		n      int
	)
	r.Observe = func(key string) *obs.Observer {
		mu.Lock()
		series[key] = nil
		n++
		mu.Unlock()
		return &obs.Observer{Rec: obs.NewRecorder(25_000, func(s obs.Snapshot) {
			mu.Lock()
			series[key] = append(series[key], s)
			mu.Unlock()
		})}
	}
	snaps = func() map[string][]obs.Snapshot {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(series)
	}
	calls = func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
	return r, snaps, calls
}

// TestMetricsRecordingPreservesDeterminism is the acceptance check for
// the observability layer: with recording ON, results must be
// byte-identical between the serial schedule and an 8-worker pool, and
// identical to a runner with recording OFF — and the exported metrics
// bytes themselves must be schedule-independent. Observe is called once
// per executed key, however often the key is requested.
func TestMetricsRecordingPreservesDeterminism(t *testing.T) {
	matrix := cells(detWorkloads(t), base, dice)

	serialOn, serialSnaps, _ := metricsRunner(1)
	pooledOn, pooledSnaps, pooledCalls := metricsRunner(8)
	pooledOff := detRunner(8)
	serialOn.RunCells(context.Background(), matrix, nil)
	pooledOn.RunCells(context.Background(), append(matrix, matrix...), nil)
	pooledOff.RunCells(context.Background(), matrix, nil)
	if n := pooledCalls(); n != len(matrix) {
		t.Fatalf("Observe called %d times for %d distinct cells requested twice each", n, len(matrix))
	}

	for _, c := range matrix {
		on1, on8, off8 := runOne(serialOn, c), runOne(pooledOn, c), runOne(pooledOff, c)
		if !reflect.DeepEqual(on1, on8) {
			t.Fatalf("%s: recording on, workers 1 vs 8 differ", c.Label())
		}
		if !reflect.DeepEqual(on1, off8) {
			t.Fatalf("%s: recording on vs off differ", c.Label())
		}
	}

	// The export dicebench writes (obs.WriteEpochs over its recorders)
	// must be deterministic too, byte for byte.
	var a, b bytes.Buffer
	if err := obs.WriteEpochs(&a, serialSnaps()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteEpochs(&b, pooledSnaps()); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("metrics export is empty with recording on")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("metrics export differs between workers 1 and 8")
	}

	// One snapshot list per executed simulation, keyed by the cell's
	// Key, sampled every 25000 cycles.
	ms := pooledSnaps()
	if want := len(matrix); len(ms) != want {
		t.Fatalf("recorded %d series, want %d", len(ms), want)
	}
	for _, c := range matrix {
		if _, ok := ms[c.Key()]; !ok {
			t.Fatalf("no series under the cell key %s", c.Key())
		}
	}
	for key, snaps := range ms {
		if len(snaps) == 0 {
			t.Fatalf("series %q has no epochs", key)
		}
		for _, s := range snaps {
			if s.Cycles != 25_000 {
				t.Fatalf("series %q sampled every %d cycles, want 25000", key, s.Cycles)
			}
		}
	}
	if pooledOff.TotalCycles() == 0 || pooledOn.TotalCycles() != serialOn.TotalCycles() {
		t.Fatalf("TotalCycles mismatch: serial %d, pooled %d",
			serialOn.TotalCycles(), pooledOn.TotalCycles())
	}
}
