package serve_test

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dice/internal/serve"
	"dice/internal/serve/client"
)

// countingTransport counts DELETE requests on their way to the daemon.
type countingTransport struct{ deletes atomic.Int32 }

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodDelete {
		ct.deletes.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// client.Cancel through a live daemon: a job waiting behind the one
// busy worker is cancelled while queued — the reply says so and a later
// Status agrees — and an unknown ID is a permanent 404, failing on the
// first attempt with no retries.
func TestClientCancel(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := serve.ExecuteForTest(serve.Config{QueueCap: 4, JobWorkers: 1}, func(ctx context.Context, spec serve.JobSpec, emit func(serve.StreamEvent)) (string, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return "", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	})
	d, _, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	}()
	ct := &countingTransport{}
	c := client.New("http://"+addr.String(), 1)
	c.HTTPClient = &http.Client{Transport: ct}
	c.BaseDelay = time.Millisecond
	c.MaxDelay = 5 * time.Millisecond
	ctx := t.Context()
	spec := serve.JobSpec{Experiments: []string{"metrics-demo"}}

	t.Run("queued", func(t *testing.T) {
		if _, err := c.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
		<-started // the worker is now held by the first job
		queued, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Cancel(ctx, queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.ID != queued.ID || st.State != serve.StateCancelled {
			t.Fatalf("Cancel = %s %s, want %s %s", st.ID, st.State, queued.ID, serve.StateCancelled)
		}
		if st, err = c.Status(ctx, queued.ID); err != nil || st.State != serve.StateCancelled {
			t.Fatalf("Status after Cancel = %s, %v; want %s", st.State, err, serve.StateCancelled)
		}
	})

	t.Run("unknown id", func(t *testing.T) {
		before := ct.deletes.Load()
		_, err := c.Cancel(ctx, "j999")
		if err == nil || !strings.Contains(err.Error(), "404") {
			t.Fatalf("Cancel(unknown) = %v, want a 404 error", err)
		}
		if n := ct.deletes.Load() - before; n != 1 {
			t.Fatalf("Cancel(unknown) sent %d DELETE requests, want 1 (no retries)", n)
		}
	})
}
