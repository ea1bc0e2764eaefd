// Package client is the retrying HTTP client for the dicebenchd
// experiment daemon (internal/serve). It speaks the daemon's JSON API
// and absorbs the daemon's explicit backpressure: a 429 with
// Retry-After — or a transient transport/5xx failure — is retried
// with jittered exponential backoff, honoring the server's
// Retry-After hint when it is longer than the backoff. Client errors
// (400/404) are permanent and returned immediately.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dice/internal/serve"
)

// Client talks to one daemon. The zero value is not usable; construct
// with New. Fields may be adjusted before first use.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8377".
	Base string
	// HTTPClient is the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, first included (default 10).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms); the
	// delay before attempt k is jittered in [d/2, d] where
	// d = min(BaseDelay<<k, MaxDelay), then raised to any Retry-After
	// the server sent.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration

	// rng drives the jitter; seeded so tests can pin schedules.
	// Guarded by rngMu: one Client may be shared across goroutines.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// New returns a client for the daemon at base with the default retry
// policy. seed pins the jitter stream (any value is fine; identical
// seeds give identical backoff schedules).
func New(base string, seed int64) *Client {
	return &Client{
		Base:        base,
		HTTPClient:  http.DefaultClient,
		MaxAttempts: 10,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// errPermanent wraps an error the retry loop must not retry.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// retryAfterError carries a server Retry-After hint up to the retry
// loop alongside the retryable error.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e retryAfterError) Error() string { return e.err.Error() }
func (e retryAfterError) Unwrap() error { return e.err }

// Submit submits a job spec, retrying through backpressure, and
// returns the accepted job's status (its ID in particular).
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (serve.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobStatus{}, fmt.Errorf("client: %w", err)
	}
	var st serve.JobStatus
	err = c.retry(ctx, func() error {
		return c.do(ctx, http.MethodPost, "/jobs", body, &st)
	})
	return st, err
}

// Status fetches one job's status (output included once terminal).
func (c *Client) Status(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.retry(ctx, func() error {
		return c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	})
	return st, err
}

// Cancel asks the daemon to cancel a job.
func (c *Client) Cancel(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.retry(ctx, func() error {
		return c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, &st)
	})
	return st, err
}

// Health fetches the daemon's /healthz self-stats.
func (c *Client) Health(ctx context.Context) (serve.Health, error) {
	var h serve.Health
	err := c.retry(ctx, func() error {
		return c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	})
	return h, err
}

// retry runs one call with jittered exponential backoff. Permanent
// errors (4xx other than 429) and context cancellation end the loop
// immediately; everything else retries up to MaxAttempts.
func (c *Client) retry(ctx context.Context, call func() error) error {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 10
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			delay := c.backoff(attempt)
			var ra retryAfterError
			if errors.As(err, &ra) && ra.after > delay {
				delay = ra.after
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
		}
		err = call()
		if err == nil {
			return nil
		}
		var perm errPermanent
		if errors.As(err, &perm) {
			return perm.err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", attempts, err)
}

// backoff returns the jittered delay before the given (1-based) retry
// attempt: uniform in [d/2, d] with d = min(BaseDelay<<attempt, MaxDelay).
func (c *Client) backoff(attempt int) time.Duration {
	base := c.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := c.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << uint(attempt-1)
	if d > max || d <= 0 {
		d = max
	}
	half := d / 2
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

// do performs one HTTP exchange, decoding a 2xx JSON body into out.
// Non-2xx statuses become errors: 429 retryable with the Retry-After
// hint attached, 5xx retryable, other 4xx permanent.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return errPermanent{fmt.Errorf("client: %w", err)}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err) // transport errors retry
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return fmt.Errorf("client: reading %s %s: %w", method, path, err)
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(payload, out); err != nil {
			return errPermanent{fmt.Errorf("client: decoding %s %s: %w", method, path, err)}
		}
		return nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return retryAfterError{
			err:   fmt.Errorf("client: %s %s: %s (%s)", method, path, resp.Status, apiError(payload)),
			after: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusServiceUnavailable:
		return fmt.Errorf("client: %s %s: %s (%s)", method, path, resp.Status, apiError(payload))
	default:
		return errPermanent{fmt.Errorf("client: %s %s: %s (%s)", method, path, resp.Status, apiError(payload))}
	}
}

// apiError extracts the daemon's {"error": ...} message, falling back
// to the raw body.
func apiError(payload []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(payload)
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delta-seconds (what the daemon emits) or an HTTP-date (what a
// fronting proxy or load balancer may substitute). Dates in the past
// and unparseable values yield 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	// http.ParseTime accepts all three HTTP-date formats (RFC 5322,
	// RFC 850, ANSI C asctime).
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
