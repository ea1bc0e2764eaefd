package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dice/internal/commitlog"
	"dice/internal/experiments"
)

// TestSubmitBodies posts bodies to POST /jobs and checks the status:
// whitespace may follow a spec, but a second value, trailing bytes, an
// unknown field, an oversized body and a CIP table past the simulator's
// bound are refused with 400 before any job exists.
func TestSubmitBodies(t *testing.T) {
	d := testDaemon(t, Config{
		QueueCap: 16, JobWorkers: 1,
		execute: func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) {
			return "", nil
		},
	})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()

	cases := []struct {
		name, body string
		want       int
	}{
		{"cell job", `{"cells":[{"workload":"gcc","policy":"dice"},{"workload":"mcf","cip":512}],"refs":300}`, http.StatusAccepted},
		{"experiment job", `{"experiments":["fig10"],"scale":12}`, http.StatusAccepted},
		{"trailing whitespace", "{\"experiments\":[\"fig10\"]}\n\t ", http.StatusAccepted},
		// 2^40 CIP entries: running the cell would be a fatal
		// allocation failure that takes the daemon down.
		{"cip over bound", `{"cells":[{"workload":"gcc","policy":"dice","cip":1099511627776}]}`, http.StatusBadRequest},
		{"trailing bytes", `{"experiments":["fig10"]}{"experiments":["all"]} trailing`, http.StatusBadRequest},
		{"unknown field", `{"experiments":["fig10"],"priority":9}`, http.StatusBadRequest},
		{"oversized", `{"experiments":["fig10"]` + strings.Repeat(" ", maxSpecBytes) + `}`, http.StatusBadRequest},
	}
	accepted := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, msg)
			}
		})
		if tc.want == http.StatusAccepted {
			accepted++
		}
	}
	if n := len(d.Statuses()); n != accepted {
		t.Fatalf("daemon holds %d jobs, want the %d accepted", n, accepted)
	}
}

// A submit whose journal record cannot be made durable is refused and
// leaves no trace: no listed job, no queue slot, and no count in
// jobs_submitted, which counts only admissions whose submit record is
// durable. The error wraps ErrJournal and the commit log's own.
func TestJournalFailureRefusesAdmission(t *testing.T) {
	d := testDaemon(t, Config{QueueCap: 4, JobWorkers: 1})
	if err := d.journal.log.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := d.Submit(JobSpec{Experiments: []string{"fig4"}})
	if !errors.Is(err, ErrJournal) || !errors.Is(err, commitlog.ErrClosed) {
		t.Fatalf("Submit on a closed journal: %v, want ErrJournal wrapping commitlog.ErrClosed", err)
	}
	if jobs := d.Statuses(); len(jobs) != 0 {
		t.Fatalf("refused job is listed: %+v", jobs)
	}
	if st := d.Stats(); st.QueueDepth != 0 || st.Submitted != 0 {
		t.Fatalf("stats after a refused admission: %+v, want depth 0 and nothing submitted", st)
	}
}

// POST /jobs answers a failed journal append with 500, a server fault
// the retrying client retries, not the 400 it gives a spec it rejects.
func TestJournalFailureAnswers500(t *testing.T) {
	d := testDaemon(t, Config{QueueCap: 4, JobWorkers: 1})
	if err := d.journal.log.Close(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(`{"experiments":["fig4"]}`)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body)
	}
}

// specKeys lists what decides the simulations a spec runs: each cell's
// key for a cell job; for an experiment job, the experiment IDs and the
// key of the job-wide settings every experiment cell is rewritten with.
func specKeys(s JobSpec) []string {
	var keys []string
	for _, c := range s.Cells {
		keys = append(keys, c.Key())
	}
	if len(s.Experiments) > 0 {
		keys = append(keys, s.Experiments...)
		job := experiments.CellSpec{Refs: s.Refs, Scale: s.Scale, BER: s.FaultBER, FaultSeed: s.FaultSeed, FaultPolicy: s.FaultPolicy}
		keys = append(keys, job.Key())
	}
	return keys
}

// FuzzSubmit feeds the submit path's decoding arbitrary body bytes.
// Decoding and JobSpec.Validate must never panic, and a spec they admit
// must survive the journal's round trip: re-encoded with json.Marshal
// and decoded with json.Unmarshal, as a restart replays it, it still
// validates and names the same simulations. Admitted specs are not run.
// The seed corpus is in testdata/fuzz/FuzzSubmit.
func FuzzSubmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
		if err != nil || spec.Validate() != nil {
			return
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("admitted spec %+v does not encode: %v", spec, err)
		}
		var again JobSpec
		if err := json.Unmarshal(b, &again); err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", b, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-encoded spec %s no longer validates: %v", b, err)
		}
		if got, want := specKeys(again), specKeys(spec); !slices.Equal(got, want) {
			t.Fatalf("round trip changed the spec's keys:\ngot  %q\nwant %q", got, want)
		}
	})
}
