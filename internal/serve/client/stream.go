package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dice/internal/serve"
)

// Stream follows one job's event stream (GET /jobs/{id}/stream) to
// completion and returns its done event. The daemon serves every
// connection from the job's first event, so a reconnect — after a cut,
// a daemon restart, or against a finished job's synthesized replay —
// reads the sequence again; Stream hands fn each distinct event once
// (cells by CellResult.Key, epochs by (EpochLine.Key, Snap.Epoch)) and
// the done event last. Determinism makes skipping a replayed cell
// safe. Epochs are at most once: one the daemon's buffer cap dropped
// stays missing. Cuts and torn tail lines (the journal's
// longest-valid-prefix discipline) retry with jittered backoff; the
// budget resets only when a connection hands fn a new event, so a
// daemon that keeps cutting after the same replayed prefix exhausts
// MaxAttempts. A non-nil error from fn aborts the stream permanently
// and is returned wrapped.
func (c *Client) Stream(ctx context.Context, id string, fn func(serve.StreamEvent) error) (serve.StreamEvent, error) {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 10
	}
	seen := map[eventID]bool{}
	failures := 0
	for {
		fresh, final, err := c.streamOnce(ctx, id, seen, fn)
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
		if fresh > 0 {
			failures = 0
		}
		failures++
		if failures >= attempts {
			return serve.StreamEvent{}, fmt.Errorf("client: stream %s: giving up after %d attempts: %w", id, attempts, err)
		}
		select {
		case <-ctx.Done():
			return serve.StreamEvent{}, ctx.Err()
		case <-time.After(c.backoff(failures)):
		}
	}
}

// eventID names one distinct stream event: a cell by its key, an
// epoch snapshot by its simulation's key and epoch number.
type eventID struct {
	kind  serve.StreamKind
	key   string
	epoch uint64
}

// idOf names a cell or epoch event (DecodeStreamLine guarantees its
// payload is set).
func idOf(ev serve.StreamEvent) eventID {
	if ev.Kind == serve.StreamEpoch {
		return eventID{kind: ev.Kind, key: ev.Epoch.Key, epoch: ev.Epoch.Snap.Epoch}
	}
	return eventID{kind: ev.Kind, key: ev.Cell.Key}
}

// streamOnce runs one stream connection: read the job's sequence from
// its first event until the done event, a torn line, or a cut, handing
// fn each event not yet in seen and adding it there. Returns how many
// events fn received and, when the done event arrived, that event.
func (c *Client) streamOnce(ctx context.Context, id string, seen map[eventID]bool, fn func(serve.StreamEvent) error) (int, *serve.StreamEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/jobs/"+id+"/stream", nil)
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
	fresh := 0
	for sc.Scan() {
		ev, ok := serve.DecodeStreamLine(sc.Bytes())
		if !ok {
			// Torn or corrupt line — the valid prefix ends here.
			return fresh, nil, fmt.Errorf("client: stream %s: torn frame", id)
		}
		if ev.Kind != serve.StreamDone {
			eid := idOf(ev)
			if seen[eid] {
				continue
			}
			seen[eid] = true
		}
		fresh++
		if err := fn(ev); err != nil {
			return fresh, nil, errPermanent{fmt.Errorf("client: stream %s: %w", id, err)}
		}
		if ev.Kind == serve.StreamDone {
			return fresh, &ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return fresh, nil, fmt.Errorf("client: stream %s: %w", id, err)
	}
	return fresh, nil, nil // clean EOF without done: daemon shut down mid-stream
}
