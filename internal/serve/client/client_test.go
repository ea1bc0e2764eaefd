package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dice/internal/serve"
)

// newTestClient points a fast-retrying client at a test server.
func newTestClient(ts *httptest.Server) *Client {
	c := New(ts.URL, 1)
	c.HTTPClient = ts.Client()
	c.BaseDelay = time.Millisecond
	c.MaxDelay = 5 * time.Millisecond
	return c
}

func writeStatus(w http.ResponseWriter, code int, st serve.JobStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(st)
}

// A 429 with Retry-After must be retried — and the server's hint must
// override a shorter computed backoff: the wait before the successful
// attempt is at least the full Retry-After.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		writeStatus(w, http.StatusAccepted, serve.JobStatus{ID: "j1", State: serve.StateQueued})
	}))
	defer ts.Close()

	c := newTestClient(ts) // backoff caps at 5ms: only the hint explains a 1s wait
	start := time.Now()
	st, err := c.Submit(context.Background(), serve.JobSpec{Experiments: []string{"metrics-demo"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" {
		t.Fatalf("submit returned %+v", st)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retried after %v, before the 1s Retry-After hint", elapsed)
	}
}

// 5xx responses and 429s without a hint retry on the backoff schedule
// alone until the server recovers.
func TestRetryTransientServerErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
		case 2:
			w.WriteHeader(http.StatusTooManyRequests) // no Retry-After
			w.Write([]byte(`{"error":"queue full"}`))
		default:
			writeStatus(w, http.StatusOK, serve.JobStatus{ID: "j2", State: serve.StateDone, Output: "out"})
		}
	}))
	defer ts.Close()

	st, err := newTestClient(ts).Status(context.Background(), "j2")
	if err != nil {
		t.Fatal(err)
	}
	if st.Output != "out" || calls.Load() != 3 {
		t.Fatalf("status %+v after %d calls", st, calls.Load())
	}
}

// 4xx client errors (other than 429) are permanent: one attempt, the
// daemon's error message surfaced.
func TestPermanentClientErrorNoRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"unknown experiment \"nope\""}`))
	}))
	defer ts.Close()

	_, err := newTestClient(ts).Submit(context.Background(), serve.JobSpec{Experiments: []string{"nope"}})
	if err == nil {
		t.Fatal("bad spec accepted")
	}
	if !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("daemon error message lost: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("permanent 400 retried: %d calls", got)
	}
}

// Retries give up after MaxAttempts with the last error attached, and
// a cancelled context ends the loop early.
func TestRetryBounds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := newTestClient(ts)
	c.MaxAttempts = 3
	_, err := c.Status(context.Background(), "j1")
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("exhaustion error = %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}

	calls.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Status(ctx, "j1"); err != context.Canceled {
		t.Fatalf("cancelled retry loop returned %v", err)
	}
}

// The jittered backoff stays inside [d/2, d] with d capped at
// MaxDelay, and identical seeds give identical schedules.
func TestBackoffBoundsAndDeterminism(t *testing.T) {
	a := New("http://x", 7)
	a.BaseDelay = 10 * time.Millisecond
	a.MaxDelay = 80 * time.Millisecond
	b := New("http://x", 7)
	b.BaseDelay = a.BaseDelay
	b.MaxDelay = a.MaxDelay

	for attempt := 1; attempt <= 10; attempt++ {
		d := a.BaseDelay << uint(attempt-1)
		if d > a.MaxDelay || d <= 0 {
			d = a.MaxDelay
		}
		got := a.backoff(attempt)
		if got < d/2 || got > d {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, got, d/2, d)
		}
		if other := b.backoff(attempt); other != got {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, got, other)
		}
	}
}
