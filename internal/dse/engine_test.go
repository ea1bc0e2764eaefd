package dse

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dice/internal/serve"
)

// smokeSpec is a small three-axis sweep the engine tests share: 8
// requested cells + 2 baselines, all on cheap synthetic workloads.
const smokeSpec = `
name = engine-smoke
refs = 150
workload = gcc mcf
policy = dice tsi
ber = 0 1e-5
`

func smokeCells(t *testing.T) []serve.CellSpec {
	t.Helper()
	spec, err := Parse(strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 {
		t.Fatalf("smoke spec expanded to %d cells, want 10", len(cells))
	}
	return cells
}

// exportBytes runs the full pipeline — execute, frontier, export —
// and returns the CSV and JSON bytes.
func exportBytes(t *testing.T, cells []serve.CellSpec, opt Options) ([]byte, []byte) {
	t.Helper()
	rlog, rep, err := OpenResultLog(filepath.Join(t.TempDir(), "sweep.results"))
	if err != nil {
		t.Fatal(err)
	}
	defer rlog.Close()
	results, err := Run(context.Background(), cells, rlog, rep.Results, opt)
	if err != nil {
		t.Fatal(err)
	}
	return frontierBytes(t, cells, results)
}

// frontierBytes computes the frontier of a complete result set and
// returns its CSV and JSON exports.
func frontierBytes(t *testing.T, cells []serve.CellSpec, results map[string]serve.CellResult) ([]byte, []byte) {
	t.Helper()
	points, err := Frontier(cells, results)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, jsonBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, points); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsonBuf, points); err != nil {
		t.Fatal(err)
	}
	return csvBuf.Bytes(), jsonBuf.Bytes()
}

// The determinism bar, local half: frontier exports are byte-identical
// at workers 1 (the serial reference schedule) and workers 8.
func TestFrontierByteEqualWorkers1Vs8(t *testing.T) {
	cells := smokeCells(t)
	csv1, json1 := exportBytes(t, cells, Options{Workers: 1})
	csv8, json8 := exportBytes(t, cells, Options{Workers: 8})
	if !bytes.Equal(csv1, csv8) {
		t.Fatalf("CSV diverges between workers 1 and 8:\n--- w1 ---\n%s--- w8 ---\n%s", csv1, csv8)
	}
	if !bytes.Equal(json1, json8) {
		t.Fatal("JSON diverges between workers 1 and 8")
	}
}

// The determinism bar, sharded half: running the same matrix through
// a live dicebenchd daemon (in-process, real HTTP) and streaming the
// results back produces the same frontier bytes as the local pool, at
// the serial schedule and at parallel ones.
func TestFrontierByteEqualLocalVsDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon round trip skipped in -short mode")
	}
	cells := smokeCells(t)
	localCSV, localJSON := exportBytes(t, cells, Options{Workers: 2})

	d, _, err := serve.New(serve.Config{
		JournalPath: filepath.Join(t.TempDir(), "d.journal"),
		DefaultRefs: 999_999, // must be irrelevant: cells carry refs explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	}()
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		daemonCSV, daemonJSON := exportBytes(t, cells, Options{
			Workers: workers,
			Daemons: []string{"http://" + addr.String()},
			Batch:   3, // force several jobs, exercising batch chunking
		})
		if !bytes.Equal(localCSV, daemonCSV) {
			t.Fatalf("workers=%d: CSV diverges between local and daemon paths:\n--- local ---\n%s--- daemon ---\n%s", workers, localCSV, daemonCSV)
		}
		if !bytes.Equal(localJSON, daemonJSON) {
			t.Fatalf("workers=%d: JSON diverges between local and daemon paths", workers)
		}
	}
}

// Resume: cells already in the results log are not re-run — a second
// Run over a complete log executes nothing, and a partial log re-runs
// only the missing cells (counted via log line growth).
func TestResumeRunsOnlyMissingCells(t *testing.T) {
	cells := smokeCells(t)
	path := filepath.Join(t.TempDir(), "sweep.results")

	// First pass: run only the first 4 cells.
	rlog, rep, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), cells[:4], rlog, rep.Results, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	rlog.Close()

	// Resume: the remaining 6 run, the logged 4 replay untouched.
	rlog2, rep2, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Results) != 4 {
		t.Fatalf("replay found %d cells, want 4", len(rep2.Results))
	}
	results, err := Run(context.Background(), cells, rlog2, rep2.Results, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rlog2.Close()
	if len(results) != len(cells) {
		t.Fatalf("resumed run has %d results, want %d", len(results), len(cells))
	}
	_, rep3, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Cells != len(cells) {
		t.Fatalf("log holds %d lines after resume, want %d (only missing cells appended)", rep3.Cells, len(cells))
	}

	// A third run over the complete log must execute nothing.
	rlog4, rep4, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	results4, err := Run(context.Background(), cells, rlog4, rep4.Results, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rlog4.Close()
	if len(results4) != len(cells) {
		t.Fatalf("no-op resume has %d results", len(results4))
	}
	_, rep5, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep5.Cells != len(cells) {
		t.Fatalf("no-op resume appended lines: %d, want %d", rep5.Cells, len(cells))
	}

	// And the resumed results produce the same frontier bytes as an
	// uninterrupted run.
	points, err := Frontier(cells, results)
	if err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := WriteCSV(&resumed, points); err != nil {
		t.Fatal(err)
	}
	wholeCSV, _ := exportBytes(t, cells, Options{Workers: 2})
	if !bytes.Equal(resumed.Bytes(), wholeCSV) {
		t.Fatal("resumed frontier diverges from an uninterrupted run")
	}
}

// Cancellation mid-sweep keeps the completed prefix in the log and
// returns the context error, the contract -resume is built on.
func TestRunCancellationKeepsLog(t *testing.T) {
	cells := smokeCells(t)
	rlog, rep, err := OpenResultLog(filepath.Join(t.TempDir(), "sweep.results"))
	if err != nil {
		t.Fatal(err)
	}
	defer rlog.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any cell starts
	results, err := Run(ctx, cells, rlog, rep.Results, Options{Workers: 1})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if len(results) == len(cells) {
		t.Fatal("cancelled run claims completion")
	}
}
