package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dice/internal/obs"
	"dice/internal/serve"
	"dice/internal/serve/client"
)

// The streaming invariant: consuming partial results over the job
// stream produces frontier exports byte-identical to polling each job
// to its terminal state and decoding its whole output, at both the
// serial and parallel schedules. The polled side is driven here
// through the client directly, as the reference the sweep transport
// must match.
func TestFrontierByteEqualStreamVsPollOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon round trip skipped in -short mode")
	}
	cells := smokeCells(t)
	d, _, err := serve.New(serve.Config{
		JournalPath: filepath.Join(t.TempDir(), "d.journal"),
		DefaultRefs: 999_999,
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
	base := "http://" + addr.String()
	const batch = 3
	for _, workers := range []int{1, 8} {
		sCSV, sJSON := exportBytes(t, cells, Options{
			Workers: workers,
			Daemons: []string{base},
			Batch:   batch,
		})

		c := client.New(base, 1)
		polled := make(map[string]serve.CellResult, len(cells))
		for lo := 0; lo < len(cells); lo += batch {
			chunk := cells[lo:min(lo+batch, len(cells))]
			st, err := c.Submit(context.Background(), serve.JobSpec{Cells: chunk, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			st, err = pollDone(context.Background(), c, st.ID, 5*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != serve.StateDone {
				t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
			}
			results, err := serve.DecodeCellResults(strings.NewReader(st.Output))
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(chunk) {
				t.Fatalf("job %s delivered %d results for %d cells", st.ID, len(results), len(chunk))
			}
			for _, res := range results {
				polled[res.Key] = res
			}
		}
		pCSV, pJSON := frontierBytes(t, cells, polled)

		if !bytes.Equal(sCSV, pCSV) {
			t.Fatalf("workers=%d: CSV diverges between stream and poll paths:\n--- stream ---\n%s--- poll ---\n%s", workers, sCSV, pCSV)
		}
		if !bytes.Equal(sJSON, pJSON) {
			t.Fatalf("workers=%d: JSON diverges between stream and poll paths", workers)
		}
	}
}

// Epoch snapshots flow from the simulations to the sink over the job
// stream, tagged with the cell's memoization key — and the same wiring
// works in-process.
func TestEpochSinkReceivesSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon round trip skipped in -short mode")
	}
	cells := smokeCells(t)[:2]
	keys := make(map[string]bool, len(cells))
	for _, cs := range cells {
		keys[cs.Key()] = true
	}
	run := func(t *testing.T, opt Options) map[string]int {
		var mu sync.Mutex
		epochs := map[string]int{}
		opt.MetricsEpoch = 500
		opt.EpochSink = func(key string, s obs.Snapshot) {
			mu.Lock()
			defer mu.Unlock()
			if s.Cycles == 0 {
				t.Errorf("epoch snapshot for %s spans zero cycles", key)
			}
			epochs[key]++
		}
		rlog, rep, err := OpenResultLog(filepath.Join(t.TempDir(), "sweep.results"))
		if err != nil {
			t.Fatal(err)
		}
		defer rlog.Close()
		if _, err := Run(context.Background(), cells, rlog, rep.Results, opt); err != nil {
			t.Fatal(err)
		}
		return epochs
	}

	t.Run("local", func(t *testing.T) {
		epochs := run(t, Options{Workers: 2})
		for key := range keys {
			if epochs[key] == 0 {
				t.Errorf("no epochs for cell %s", key)
			}
		}
	})
	t.Run("daemon", func(t *testing.T) {
		d, _, err := serve.New(serve.Config{
			JournalPath: filepath.Join(t.TempDir(), "d.journal"),
			DefaultRefs: 999_999,
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
		epochs := run(t, Options{Workers: 2, Daemons: []string{"http://" + addr.String()}})
		for key := range keys {
			if epochs[key] == 0 {
				t.Errorf("no epochs streamed for cell %s", key)
			}
		}
	})
}

// restartingDaemon fakes the wire protocol of a daemon that is
// SIGKILLed mid-stream and restarted: the first stream connection
// delivers every cell and cuts before the done event; the reconnect
// is served the whole sequence again and finishes. The sweep must checkpoint each cell exactly
// once despite seeing it twice.
type restartingDaemon struct {
	t       *testing.T
	results []serve.CellResult

	mu      sync.Mutex
	streams int
}

func (f *restartingDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		var spec serve.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: "j1", State: serve.StateQueued, Spec: spec})
	case r.Method == http.MethodGet && r.URL.Path == "/jobs/j1/stream":
		f.mu.Lock()
		f.streams++
		n := f.streams
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, res := range f.results {
			cr := res
			line, err := serve.EncodeStreamEvent(serve.StreamEvent{Kind: serve.StreamCell, Cell: &cr})
			if err != nil {
				f.t.Error(err)
				return
			}
			w.Write(line)
		}
		if n == 1 {
			return // SIGKILL: the connection dies before the done event
		}
		line, err := serve.EncodeStreamEvent(serve.StreamEvent{Kind: serve.StreamDone, State: serve.StateDone})
		if err != nil {
			f.t.Error(err)
			return
		}
		w.Write(line)
	default:
		http.Error(w, `{"error":"unexpected request"}`, http.StatusNotFound)
	}
}

// A daemon killed mid-stream and restarted re-delivers
// already-streamed cells; the sweep must not replay them into the
// results log as duplicates.
func TestRestartRedeliveryNoDuplicateCells(t *testing.T) {
	cells := smokeCells(t)
	fake := &restartingDaemon{t: t}
	for i, cs := range cells {
		fake.results = append(fake.results, serve.CellResult{
			Key:    cs.Key(),
			Cycles: uint64(1000 + i), // distinct payloads so a mixed-up log would show
			Energy: float64(i),
		})
	}
	ts := httptest.NewServer(fake)
	defer ts.Close()

	path := filepath.Join(t.TempDir(), "sweep.results")
	rlog, rep, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(context.Background(), cells, rlog, rep.Results, Options{
		Daemons: []string{ts.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	rlog.Close()
	if fake.streams < 2 {
		t.Fatalf("stream reconnected %d times, want >= 2 (restart not exercised)", fake.streams)
	}
	if len(results) != len(cells) {
		t.Fatalf("run returned %d results, want %d", len(results), len(cells))
	}

	// The log must hold each cell exactly once — line count equals the
	// cell count, and the replay agrees with the first delivery.
	_, rep2, err := OpenResultLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Cells != len(cells) {
		t.Fatalf("results log holds %d lines for %d cells (duplicates replayed)", rep2.Cells, len(cells))
	}
	for _, want := range fake.results {
		got, ok := rep2.Results[want.Key]
		if !ok {
			t.Fatalf("cell %s missing from log replay", want.Key)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %s replayed as %+v, want %+v", want.Key, got, want)
		}
	}
}

// pollDone polls job id's status every poll until the job is
// terminal (or ctx ends) and returns that status.
func pollDone(ctx context.Context, c *client.Client, id string, poll time.Duration) (serve.JobStatus, error) {
	for {
		st, err := c.Status(ctx, id)
		if err != nil || st.State.Terminal() {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}
