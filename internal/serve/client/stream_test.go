package client

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dice/internal/obs"
	"dice/internal/serve"
)

// Retry-After must parse both RFC 9110 forms: delta-seconds and
// HTTP-date (all three date formats), with past dates and garbage
// degrading to 0 rather than poisoning the backoff.
func TestParseRetryAfterForms(t *testing.T) {
	now := time.Now()
	cases := []struct {
		name string
		v    string
		min  time.Duration // inclusive
		max  time.Duration // inclusive
	}{
		{"empty", "", 0, 0},
		{"seconds", "5", 5 * time.Second, 5 * time.Second},
		{"zero-seconds", "0", 0, 0},
		{"negative-seconds", "-3", 0, 0},
		{"garbage", "soon", 0, 0},
		{"rfc1123-future", now.Add(30 * time.Second).UTC().Format(http.TimeFormat), time.Second, 30 * time.Second},
		{"rfc850-future", now.Add(30 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT"), time.Second, 30 * time.Second},
		{"asctime-future", now.Add(30 * time.Second).UTC().Format(time.ANSIC), time.Second, 30 * time.Second},
		{"rfc1123-past", now.Add(-30 * time.Second).UTC().Format(http.TimeFormat), 0, 0},
		{"malformed-date", "Wed, 99 Foo 2020", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := parseRetryAfter(tc.v)
			if got < tc.min || got > tc.max {
				t.Fatalf("parseRetryAfter(%q) = %v, want in [%v, %v]", tc.v, got, tc.min, tc.max)
			}
		})
	}
}

// frame renders one stream event exactly as the daemon does.
func frame(t *testing.T, ev serve.StreamEvent) []byte {
	t.Helper()
	line, err := serve.EncodeStreamEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// cellEv builds a framed cell event.
func cellEv(t *testing.T, key string) []byte {
	cr := serve.CellResult{Key: key}
	return frame(t, serve.StreamEvent{Kind: serve.StreamCell, Cell: &cr})
}

// epochEv builds a framed epoch event for epoch n of simulation key.
func epochEv(t *testing.T, key string, n uint64) []byte {
	return frame(t, serve.StreamEvent{Kind: serve.StreamEpoch, Epoch: &obs.EpochLine{Key: key, Snap: obs.Snapshot{Epoch: n}}})
}

// doneEv builds a framed done event.
func doneEv(t *testing.T) []byte {
	return frame(t, serve.StreamEvent{Kind: serve.StreamDone, State: serve.StateDone})
}

// scriptedStream serves a scripted sequence of responses, one per
// connection, and records each connection's request URI.
type scriptedStream struct {
	mu    sync.Mutex
	conns []string // request URI per connection, in order
	body  [][]byte // bytes to write per connection
}

func (s *scriptedStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.conns)
	s.conns = append(s.conns, r.URL.RequestURI())
	var body []byte
	if n < len(s.body) {
		body = s.body[n]
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(body)
}

func (s *scriptedStream) queries() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.conns...)
}

// concat joins framed lines into one connection body.
func concat(lines ...[]byte) []byte {
	var b []byte
	for _, l := range lines {
		b = append(b, l...)
	}
	return b
}

// names renders the events fn received, one token per event: a cell
// by its key, an epoch as key@epoch, the done event as "done".
func names(evs []serve.StreamEvent) string {
	var out []string
	for _, ev := range evs {
		switch ev.Kind {
		case serve.StreamCell:
			out = append(out, ev.Cell.Key)
		case serve.StreamEpoch:
			out = append(out, fmt.Sprintf("%s@%d", ev.Epoch.Key, ev.Epoch.Snap.Epoch))
		default:
			out = append(out, string(ev.Kind))
		}
	}
	return strings.Join(out, ",")
}

// runStream drives c.Stream against job j1 and returns the done event
// and every event fn received, in order.
func runStream(t *testing.T, c *Client) (serve.StreamEvent, []serve.StreamEvent) {
	t.Helper()
	var got []serve.StreamEvent
	final, err := c.Stream(t.Context(), "j1", func(ev serve.StreamEvent) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return final, got
}

// A stream cut mid-flight — a torn final frame — reconnects, is
// served the whole sequence again, and hands fn c0..c3 exactly once
// each, then done. Every connection asks for the plain stream.
func TestStreamTornCutThenReplayDeliversOnce(t *testing.T) {
	first := concat(cellEv(t, "c0"), cellEv(t, "c1"), cellEv(t, "c2"),
		[]byte("deadbeef {torn-mid-frame\n")) // cut lands mid-append
	second := concat(cellEv(t, "c0"), cellEv(t, "c1"), cellEv(t, "c2"), cellEv(t, "c3"), doneEv(t))

	s := &scriptedStream{body: [][]byte{first, second}}
	ts := httptest.NewServer(s)
	defer ts.Close()

	final, got := runStream(t, newTestClient(ts))
	if final.Kind != serve.StreamDone || final.State != serve.StateDone {
		t.Fatalf("final = %+v", final)
	}
	if got, want := names(got), "c0,c1,c2,c3,done"; got != want {
		t.Fatalf("fn saw %s, want %s (no dups, no gaps)", got, want)
	}
	q := s.queries()
	if len(q) != 2 || q[0] != "/jobs/j1/stream" || q[1] != "/jobs/j1/stream" {
		t.Fatalf("connection requests = %v", q)
	}
}

// A restarted daemon serves a second sequence — its cells in another
// completion order, its epochs re-recorded — and fn receives no cell
// and no (key, epoch) pair twice, while new epochs of either key still
// come through.
func TestStreamRestartRedeliversNothing(t *testing.T) {
	first := concat(cellEv(t, "c0"), epochEv(t, "k0", 0), cellEv(t, "c1"), epochEv(t, "k0", 1))
	second := concat(cellEv(t, "c1"), epochEv(t, "k0", 0), cellEv(t, "c0"), epochEv(t, "k0", 1),
		epochEv(t, "k1", 0), epochEv(t, "k0", 2), cellEv(t, "c2"), doneEv(t))

	s := &scriptedStream{body: [][]byte{first, second}}
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, got := runStream(t, newTestClient(ts))
	if got, want := names(got), "c0,k0@0,c1,k0@1,k1@0,k0@2,c2,done"; got != want {
		t.Fatalf("fn saw %s, want %s", got, want)
	}
}

// 404 is permanent: one attempt, no retries.
func TestStreamPermanentOn404(t *testing.T) {
	conns := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns++
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer ts.Close()
	c := newTestClient(ts)
	if _, err := c.Stream(t.Context(), "nope", func(serve.StreamEvent) error { return nil }); err == nil {
		t.Fatal("want error for 404 stream")
	}
	if conns != 1 {
		t.Fatalf("404 retried: %d connections", conns)
	}
}

// A server that keeps cutting the stream without progress exhausts
// MaxAttempts and surfaces a giving-up error.
func TestStreamGivesUpWithoutProgress(t *testing.T) {
	conns := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns++ // 200 with an empty body: a cut before any event
	}))
	defer ts.Close()
	c := newTestClient(ts)
	c.MaxAttempts = 3
	_, err := c.Stream(t.Context(), "j1", func(serve.StreamEvent) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	if conns != 3 {
		t.Fatalf("connections = %d, want 3", conns)
	}
}

// Connections that only resend events fn already received make no
// progress: the retry budget is not reset, so a daemon that keeps
// cutting after the same replayed prefix exhausts MaxAttempts.
func TestStreamReplayWithoutNewEventsGivesUp(t *testing.T) {
	prefix := concat(cellEv(t, "c0"), epochEv(t, "k0", 0), cellEv(t, "c1"))
	s := &scriptedStream{body: [][]byte{prefix, prefix, prefix, prefix, prefix}}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := newTestClient(ts)
	c.MaxAttempts = 3

	var got []serve.StreamEvent
	_, err := c.Stream(t.Context(), "j1", func(ev serve.StreamEvent) error {
		got = append(got, ev)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	if n := len(s.queries()); n != 3 {
		t.Fatalf("connections = %d, want 3", n)
	}
	if got, want := names(got), "c0,k0@0,c1"; got != want {
		t.Fatalf("fn saw %s, want %s", got, want)
	}
}

// An fn error aborts the stream permanently — no reconnect loop
// around a consumer that cannot accept events.
func TestStreamFnErrorAborts(t *testing.T) {
	body := concat(cellEv(t, "c0"), doneEv(t))
	s := &scriptedStream{body: [][]byte{body, body, body}}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := newTestClient(ts)
	_, err := c.Stream(t.Context(), "j1", func(ev serve.StreamEvent) error {
		return fmt.Errorf("consumer rejected %s", ev.Kind)
	})
	if err == nil || !strings.Contains(err.Error(), "consumer rejected") {
		t.Fatalf("err = %v, want consumer error", err)
	}
	if len(s.queries()) != 1 {
		t.Fatalf("fn error retried: %v", s.queries())
	}
}
