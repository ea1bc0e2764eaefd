package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dice/internal/experiments"
	"dice/internal/serve"
	"dice/internal/serve/client"
)

// Subprocess smoke tests: build the real binary once, then drive it
// over HTTP and signals the way an operator (or CI's daemon-smoke
// job) would — including the SIGKILL crash that no in-process test
// can stage.

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func daemonBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dicebenchd-bin")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "dicebenchd")
		out, err := exec.Command("go", "build", "-o", binPath, "dice/cmd/dicebenchd").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// daemonProc is one running daemon subprocess plus its scraped address.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error // resolves with cmd.Wait
	out  *strings.Builder
	mu   *sync.Mutex
}

// startDaemon launches the binary on an ephemeral port and scrapes
// the "listening on" line for the bound address.
func startDaemon(t *testing.T, args ...string) *daemonProc {
	t.Helper()
	cmd := exec.Command(daemonBinary(t), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{cmd: cmd, done: make(chan error, 1), out: &strings.Builder{}, mu: &sync.Mutex{}}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			p.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "dicebenchd: listening on "); ok {
				select {
				case addrCh <- strings.TrimSpace(a):
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
		// Wait closes the pipe, so it runs only after the last line is
		// read: a shutdown line written just before exit is never lost.
		p.done <- cmd.Wait()
	}()

	select {
	case p.addr = <-addrCh:
	case err := <-p.done:
		t.Fatalf("daemon exited before listening: %v\n%s", err, p.output())
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never printed its address\n%s", p.output())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			<-p.done
		}
	})
	return p
}

func (p *daemonProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// waitExit waits for the process to exit within the bound and returns
// its wait error (nil = exit 0).
func (p *daemonProc) waitExit(t *testing.T, bound time.Duration) error {
	t.Helper()
	select {
	case err := <-p.done:
		return err
	case <-time.After(bound):
		p.cmd.Process.Kill()
		t.Fatalf("daemon did not exit within %v\n%s", bound, p.output())
		return nil
	}
}

func (p *daemonProc) client(seed int64) *client.Client {
	return client.New("http://"+p.addr, seed)
}

var smokeSpec = serve.JobSpec{Experiments: []string{"metrics-demo"}, Refs: 400, Scale: 12}

// The operator path end to end: start, submit over HTTP, stream to
// done, check /healthz, SIGTERM → clean exit 0 within the drain
// bound; then restart on the same journal and read the finished job
// back (replayed, same bytes).
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke skipped in -short mode")
	}
	want, err := serve.RunSpec(context.Background(), smokeSpec, 0)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "smoke.journal")
	p := startDaemon(t, "-journal", journal, "-q")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := p.client(1)

	st, err := c.Submit(ctx, smokeSpec)
	if err != nil {
		t.Fatalf("submit: %v\n%s", err, p.output())
	}
	st, err = streamDone(ctx, c, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.Output != want {
		t.Fatalf("job finished %s; output matches reference: %v", st.State, st.Output == want)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Stats.Done != 1 || h.Self.Goroutines <= 0 {
		t.Fatalf("healthz = %+v", h)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.waitExit(t, 45*time.Second); err != nil {
		t.Fatalf("SIGTERM exit: %v\n%s", err, p.output())
	}
	if out := p.output(); !strings.Contains(out, "clean shutdown") {
		t.Fatalf("no clean-shutdown line:\n%s", out)
	}

	// Restart on the same journal: the finished job must replay with
	// its output intact, not re-run.
	p2 := startDaemon(t, "-journal", journal, "-q")
	st2, err := p2.client(2).Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Replayed || st2.State != serve.StateDone || st2.Output != want {
		t.Fatalf("replayed status: replayed=%v state=%s output-match=%v",
			st2.Replayed, st2.State, st2.Output == want)
	}
	if out := p2.output(); !strings.Contains(out, "journal replayed 1 jobs (0 re-enqueued)") {
		t.Fatalf("replay summary missing:\n%s", out)
	}
	p2.cmd.Process.Signal(syscall.SIGTERM)
	p2.waitExit(t, 45*time.Second)
}

// The crash bar: SIGKILL the daemon mid-job, restart
// it on the same journal, and the interrupted job re-runs to bytes
// identical to a run that was never interrupted.
func TestDaemonSIGKILLRestartReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke skipped in -short mode")
	}
	// A heavier spec so SIGKILL reliably lands while it is running.
	spec := serve.JobSpec{Experiments: []string{"metrics-demo"}, Refs: 150_000, Scale: 12}
	want, err := serve.RunSpec(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "crash.journal")
	p := startDaemon(t, "-journal", journal, "-q")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := p.client(3)

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until a worker has picked the job up (state running), then
	// kill it without ceremony.
	deadline := time.Now().Add(time.Minute)
	for {
		got, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == serve.StateRunning {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("job finished (%s) before SIGKILL could land; raise its refs", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-p.done // SIGKILL: no clean shutdown, journal has the submit only

	p2 := startDaemon(t, "-journal", journal, "-q")
	if out := p2.output(); !strings.Contains(out, "journal replayed 1 jobs (1 re-enqueued)") {
		t.Fatalf("interrupted job not re-enqueued:\n%s", out)
	}
	st2, err := streamDone(ctx, p2.client(4), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != serve.StateDone {
		t.Fatalf("re-run finished %s (%s)", st2.State, st2.Error)
	}
	if !st2.Replayed {
		t.Fatal("re-run not marked replayed")
	}
	if st2.Output != want {
		t.Fatalf("re-run diverged from uninterrupted reference (%d vs %d bytes)", len(st2.Output), len(want))
	}
	p2.cmd.Process.Signal(syscall.SIGTERM)
	if err := p2.waitExit(t, 45*time.Second); err != nil {
		t.Fatalf("SIGTERM exit after replay: %v\n%s", err, p2.output())
	}
}

// Flag validation fails fast with exit 1, before binding or journal
// creation.
func TestDaemonRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke skipped in -short mode")
	}
	cmd := exec.Command(daemonBinary(t), "-queue-cap", "0")
	out, err := cmd.CombinedOutput()
	if err == nil {
		cmd.Process.Kill()
		t.Fatalf("daemon accepted -queue-cap 0:\n%s", out)
	}
	if !strings.Contains(string(out), "queue-cap") {
		t.Fatalf("unhelpful error: %s", out)
	}
}

// cellSmokeSpec is a small cell-matrix job for the streaming smokes:
// four cells heavy enough that completion is staggered, with epoch
// metrics enabled so the stream carries all three event kinds.
func cellSmokeSpec(refs int) serve.JobSpec {
	return serve.JobSpec{
		Cells: []experiments.CellSpec{
			{Workload: "gcc", Policy: "dice", Refs: refs, Scale: 12},
			{Workload: "gcc", Policy: "tsi", Refs: refs, Scale: 12},
			{Workload: "mcf", Policy: "dice", Refs: refs, Scale: 12},
			{Workload: "mcf", Policy: "tsi", Refs: refs, Scale: 12},
		},
		Workers:      1,
		MetricsEpoch: 5000,
	}
}

// The streaming wire end to end through the real binary: cells and
// epoch snapshots arrive over GET /jobs/{id}/stream while the job
// runs, the done event closes the stream, and the streamed cells are
// byte-identical to the terminal status's output.
func TestDaemonStreamLiveParity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke skipped in -short mode")
	}
	p := startDaemon(t, "-journal", filepath.Join(t.TempDir(), "stream.journal"), "-q")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := p.client(5)

	spec := cellSmokeSpec(2000)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v\n%s", err, p.output())
	}
	var (
		streamed []serve.CellResult
		epochs   int
	)
	final, err := c.Stream(ctx, st.ID, func(ev serve.StreamEvent) error {
		switch ev.Kind {
		case serve.StreamCell:
			streamed = append(streamed, *ev.Cell)
		case serve.StreamEpoch:
			epochs++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v\n%s", err, p.output())
	}
	if final.State != serve.StateDone {
		t.Fatalf("stream ended %s (%s)", final.State, final.Error)
	}
	if epochs == 0 {
		t.Fatal("no epoch snapshots streamed")
	}

	fin, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.DecodeCellResults(strings.NewReader(fin.Output))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d cells, output holds %d", len(streamed), len(want))
	}
	for i := range want {
		if fmt.Sprintf("%+v", streamed[i]) != fmt.Sprintf("%+v", want[i]) {
			t.Fatalf("cell %d diverges between stream and output:\n stream %+v\n output %+v", i, streamed[i], want[i])
		}
	}
	t.Logf("daemon-smoke: %d cells and %d epochs streamed live", len(streamed), epochs)
	p.cmd.Process.Signal(syscall.SIGTERM)
	p.waitExit(t, 45*time.Second)
}

// The crash bar for streams: SIGKILL the daemon while a client is
// mid-stream with cells already delivered, restart it on the same
// port and journal, and the same Stream call — never re-issued — must
// ride through the outage, skip the re-run's replay of cells it
// already delivered, and hand fn every cell exactly once.
func TestDaemonStreamSIGKILLRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke skipped in -short mode")
	}
	journal := filepath.Join(t.TempDir(), "streamcrash.journal")
	addr := freeDaemonAddr(t)
	p := startDaemon(t, "-addr", addr, "-journal", journal, "-q")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	c := p.client(6)

	// Heavy enough that the kill lands with cells still running.
	spec := cellSmokeSpec(60_000)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v\n%s", err, p.output())
	}

	firstCell := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	delivered := map[string][]string{} // key -> rendered payloads, dups included
	type streamEnd struct {
		final serve.StreamEvent
		err   error
	}
	ended := make(chan streamEnd, 1)
	go func() {
		final, err := c.Stream(ctx, st.ID, func(ev serve.StreamEvent) error {
			mu.Lock()
			defer mu.Unlock()
			if ev.Kind == serve.StreamCell {
				delivered[ev.Cell.Key] = append(delivered[ev.Cell.Key], fmt.Sprintf("%+v", *ev.Cell))
				once.Do(func() { close(firstCell) })
			}
			return nil
		})
		ended <- streamEnd{final, err}
	}()

	// Kill once the stream has demonstrably delivered a cell, with the
	// rest of the job still running.
	select {
	case <-firstCell:
	case e := <-ended:
		t.Fatalf("stream ended before the kill could land (%v %+v); raise the spec's refs\n%s", e.err, e.final, p.output())
	case <-time.After(2 * time.Minute):
		t.Fatalf("no cell ever streamed\n%s", p.output())
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-p.done

	// Restart at the same address on the same journal; the unfinished
	// job re-runs and its stream starts over from the first event.
	p2 := startDaemon(t, "-addr", addr, "-journal", journal, "-q")
	e := <-ended
	if e.err != nil {
		t.Fatalf("stream did not survive the restart: %v\n%s", e.err, p2.output())
	}
	if e.final.State != serve.StateDone {
		t.Fatalf("stream ended %s (%s)", e.final.State, e.final.Error)
	}

	// The job the stream finished on is the journal-replayed re-run.
	fin, err := p2.client(7).Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !fin.Replayed {
		t.Fatal("job not marked replayed (restart not exercised)")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != len(spec.Cells) {
		t.Fatalf("stream delivered %d distinct cells, want %d", len(delivered), len(spec.Cells))
	}
	for key, payloads := range delivered {
		if len(payloads) != 1 {
			t.Fatalf("cell %s reached fn %d times, want exactly once", key, len(payloads))
		}
	}

	// The terminal output agrees with the stream.
	want, err := serve.DecodeCellResults(strings.NewReader(fin.Output))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(spec.Cells) {
		t.Fatalf("final output holds %d cells, want %d", len(want), len(spec.Cells))
	}
	for _, w := range want {
		payloads := delivered[w.Key]
		if len(payloads) == 0 {
			t.Fatalf("cell %s in output but never streamed", w.Key)
		}
		if payloads[0] != fmt.Sprintf("%+v", w) {
			t.Fatalf("cell %s diverges between stream and final output", w.Key)
		}
	}
	p2.cmd.Process.Signal(syscall.SIGTERM)
	p2.waitExit(t, 45*time.Second)
}

// freeDaemonAddr picks a free localhost TCP address by binding and
// releasing it, so a killed daemon can be restarted at the same base
// URL its client is retrying.
func freeDaemonAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// streamDone follows job id's stream to its done event, then returns
// the job's final status, output included.
func streamDone(ctx context.Context, c *client.Client, id string) (serve.JobStatus, error) {
	if _, err := c.Stream(ctx, id, func(serve.StreamEvent) error { return nil }); err != nil {
		return serve.JobStatus{}, err
	}
	return c.Status(ctx, id)
}
