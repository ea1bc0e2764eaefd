package experiments

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"dice/internal/obs"
)

// metricsRunner is a detRunner with epoch recording switched on.
func metricsRunner(workers int) *Runner {
	r := detRunner(workers)
	r.MetricsEpoch = 25_000
	return r
}

// TestMetricsRecordingPreservesDeterminism is the acceptance check for
// the observability layer: with recording ON, results must be
// byte-identical between the serial schedule and an 8-worker pool, and
// identical to a runner with recording OFF — and the exported metrics
// bytes themselves must be schedule-independent.
func TestMetricsRecordingPreservesDeterminism(t *testing.T) {
	matrix := cells(detWorkloads(t), base, dice)

	serialOn := metricsRunner(1)
	pooledOn := metricsRunner(8)
	pooledOff := detRunner(8)
	for _, r := range []*Runner{serialOn, pooledOn, pooledOff} {
		r.RunCells(context.Background(), matrix, nil)
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

	// The export dicebench writes (obs.WriteEpochs over Metrics) must be
	// deterministic too, byte for byte.
	var a, b bytes.Buffer
	if err := obs.WriteEpochs(&a, serialOn.Metrics()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteEpochs(&b, pooledOn.Metrics()); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("metrics export is empty with recording on")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("metrics export differs between workers 1 and 8")
	}

	// One snapshot list per executed simulation, keyed by the cell's
	// Key, sampled every MetricsEpoch cycles.
	ms := pooledOn.Metrics()
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

// TestMetricsSinkRetainsNothing: a runner whose epochs go to a sink
// hands every snapshot to it and keeps none of them itself, so a long
// streamed job does not hold each cell's snapshot ring until it ends.
func TestMetricsSinkRetainsNothing(t *testing.T) {
	r := metricsRunner(2)
	var mu sync.Mutex
	emitted := map[string]int{}
	r.MetricsEmit = func(key string, s obs.Snapshot) {
		mu.Lock()
		emitted[key]++
		mu.Unlock()
	}
	matrix := cells(detWorkloads(t), base, dice)
	if _, err := r.RunCells(context.Background(), matrix, nil); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(matrix) {
		t.Fatalf("the sink saw epochs of %d cells, want %d", len(emitted), len(matrix))
	}
	if m := r.Metrics(); len(m) != 0 {
		t.Fatalf("a runner with a sink retained the snapshots of %d cells", len(m))
	}
}
