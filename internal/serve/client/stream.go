package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"dice/internal/serve"
)

// Stream follows one job's event stream (GET /jobs/{id}/stream) to
// completion, invoking fn for every event — cells, epochs, and the
// final done event — and returning the done event. Disconnects are
// absorbed by the client's jittered-backoff retry loop: the stream
// reconnects at the last consumed offset of the last seen generation,
// so a transient cut costs nothing. When the daemon answers with a
// different generation (it restarted, or re-derived a finished job's
// stream), the sequence restarts from 0 and fn sees earlier events
// again — callers must deduplicate cell events on their canonical
// cell key (experiments.CellSpec.Key), which determinism makes safe: a
// re-delivered cell is byte-identical to the first delivery. A non-nil
// error from fn aborts the stream permanently and is returned
// wrapped. Torn tail lines (connection cut mid-frame) are not errors;
// they mark the reconnect point, mirroring the journal's
// longest-valid-prefix discipline.
func (c *Client) Stream(ctx context.Context, id string, fn func(serve.StreamEvent) error) (serve.StreamEvent, error) {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 10
	}
	var (
		gen      string
		offset   int
		failures int
		lastErr  error
	)
	for {
		n, final, err := c.streamOnce(ctx, id, &gen, &offset, fn)
		if err == nil && final != nil {
			return *final, nil
		}
		var perm errPermanent
		if errors.As(err, &perm) {
			return serve.StreamEvent{}, perm.err
		}
		if ctx.Err() != nil {
			return serve.StreamEvent{}, ctx.Err()
		}
		if err == nil {
			err = fmt.Errorf("client: stream %s: connection ended before the done event", id)
		}
		lastErr = err
		// A connection that delivered events made progress: reset the
		// failure budget so a long stream with occasional cuts is not
		// charged as consecutive failures.
		if n > 0 {
			failures = 0
		}
		failures++
		if failures >= attempts {
			return serve.StreamEvent{}, fmt.Errorf("client: stream %s: giving up after %d attempts: %w", id, attempts, lastErr)
		}
		select {
		case <-ctx.Done():
			return serve.StreamEvent{}, ctx.Err()
		case <-time.After(c.backoff(failures)):
		}
	}
}

// streamOnce runs one stream connection: request the suffix at
// *offset/*gen, consume framed events until the done event, a torn
// line, or a cut. It advances *offset and *gen as events arrive so
// the caller's next connection resumes precisely. Returns the number
// of events consumed and, when the done event arrived, that event.
func (c *Client) streamOnce(ctx context.Context, id string, gen *string, offset *int, fn func(serve.StreamEvent) error) (int, *serve.StreamEvent, error) {
	u := fmt.Sprintf("%s/jobs/%s/stream?offset=%d&gen=%s", c.Base, id, *offset, url.QueryEscape(*gen))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, errPermanent{fmt.Errorf("client: %w", err)}
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("client: stream %s: %w", id, err) // transport errors retry
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, nil, errPermanent{fmt.Errorf("client: stream %s: %s", id, resp.Status)}
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("client: stream %s: %s", id, resp.Status)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	events := 0
	for sc.Scan() {
		ev, ok := serve.DecodeStreamLine(sc.Bytes())
		if !ok {
			// Torn or corrupt line — the valid prefix ends here;
			// reconnect at the offset we have.
			return events, nil, fmt.Errorf("client: stream %s: torn frame at offset %d", id, *offset)
		}
		if ev.Gen != *gen {
			// New generation: the sequence restarted (daemon restart or
			// synthesized replay). Adopt it; earlier events re-deliver.
			*gen = ev.Gen
			*offset = 0
		}
		if ev.Offset != *offset {
			// A gap would mean lost events; resync by reconnecting.
			return events, nil, fmt.Errorf("client: stream %s: offset %d, want %d", id, ev.Offset, *offset)
		}
		*offset = ev.Offset + 1
		events++
		if err := fn(ev); err != nil {
			return events, nil, errPermanent{fmt.Errorf("client: stream %s: %w", id, err)}
		}
		if ev.Kind == serve.StreamDone {
			done := ev
			return events, &done, nil
		}
	}
	if err := sc.Err(); err != nil {
		return events, nil, fmt.Errorf("client: stream %s: %w", id, err)
	}
	return events, nil, nil // clean EOF without done: daemon shut down mid-stream
}
