package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"dice/internal/commitlog"
	"dice/internal/experiments"
	"dice/internal/leakcheck"
	"dice/internal/obs"
)

// Stream-layer tests: wire framing, the progress buffer, the HTTP
// handler's replay-from-the-start contract, the slowloris drop, and
// goroutine hygiene for dropped stream connections. End-to-end
// streaming through the real binaries lives in cmd/dicebenchd and
// cmd/dicesweep.

// streamCells is a small valid cell batch for streaming tests.
func streamCells() []experiments.CellSpec {
	return []experiments.CellSpec{
		{Workload: "gcc", Refs: 300, Scale: 12},
		{Workload: "mcf", Policy: "dice", Refs: 300, Scale: 12},
		{Workload: "bzip2", Policy: "tsi", Refs: 300, Scale: 12},
	}
}

// openStream connects to a daemon's stream endpoint and returns the
// response body with a line reader.
func openStream(t *testing.T, base, id string) (io.ReadCloser, *bufio.Reader) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type = %q", ct)
	}
	return resp.Body, bufio.NewReaderSize(resp.Body, 1<<20)
}

// readEvent reads and decodes one framed stream line.
func readEvent(t *testing.T, r *bufio.Reader) StreamEvent {
	t.Helper()
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading stream line: %v", err)
	}
	ev, ok := DecodeStreamLine(line[:len(line)-1])
	if !ok {
		t.Fatalf("undecodable stream line: %q", line)
	}
	return ev
}

// The wire format round-trips, and torn or corrupted lines are
// rejected rather than misparsed — the reconnect discipline.
func TestStreamWireFormat(t *testing.T) {
	cr := CellResult{Key: "k1", Workload: "gcc", IPC: []float64{0.5}, Cycles: 123}
	line, err := EncodeStreamEvent(StreamEvent{Kind: StreamCell, Cell: &cr})
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatalf("frame missing trailing newline: %q", line)
	}
	ev, ok := DecodeStreamLine(line[:len(line)-1])
	if !ok {
		t.Fatalf("round trip failed for %q", line)
	}
	if ev.Kind != StreamCell || ev.Cell == nil || ev.Cell.Key != "k1" {
		t.Fatalf("round trip mangled event: %+v", ev)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("short"),
		line[:len(line)/2],                       // torn mid-frame
		append([]byte("00000000 "), line[9:]...), // CRC mismatch
		[]byte("zzzzzzzz " + `{"kind":"cell"}`),  // non-hex CRC
		commitlog.Frame([]byte(`{"not":"an event"}`)), // valid frame, no kind
		commitlog.Frame([]byte(`{"kind":"cell"}`)),    // cell without its payload
		commitlog.Frame([]byte(`{"kind":"epoch"}`)),   // epoch without its payload
		commitlog.Frame([]byte(`{"kind":"other"}`)),   // unknown kind
	} {
		if _, ok := DecodeStreamLine(bad); ok {
			t.Errorf("DecodeStreamLine accepted invalid line %q", bad)
		}
	}
}

// A stream epoch event carries exactly the line an -metrics-out file
// holds: its "epoch" payload is byte-equal to obs.EpochWriter's line,
// and the event keeps its wire shape.
func TestStreamEpochIsEpochLine(t *testing.T) {
	line := obs.EpochLine{Key: "dice|gcc", Snap: obs.Snapshot{Epoch: 2, EndCycle: 300, Cycles: 100, IPC: 0.5, CoreIPC: []float64{0.25, 0.75}}}
	ev, err := json.Marshal(StreamEvent{Kind: StreamEpoch, Epoch: &line})
	if err != nil {
		t.Fatal(err)
	}
	const prefix = `{"kind":"epoch","epoch":{"key":"dice|gcc","snap":{"epoch":2,"end_cycle":300,"cycles":100,`
	if !strings.HasPrefix(string(ev), prefix) {
		t.Fatalf("stream epoch event changed shape:\n%s\nwant prefix\n%s", ev, prefix)
	}
	var payload struct {
		Epoch json.RawMessage `json:"epoch"`
	}
	if err := json.Unmarshal(ev, &payload); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	w := obs.NewEpochWriter(&file)
	w.Emit(line.Key, line.Snap)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := string(payload.Epoch)+"\n", file.String(); got != want {
		t.Fatalf("stream payload and file line differ:\nstream %s\nfile   %s", got, want)
	}
}

// The progress buffer drops epoch events beyond its cap — telemetry
// degrades — while cell and done events always land, in append order.
func TestProgressBufferBoundsEpochs(t *testing.T) {
	p := newProgress(3)
	p.add(StreamEvent{Kind: StreamEpoch, Epoch: &obs.EpochLine{Key: "a"}})
	p.add(StreamEvent{Kind: StreamEpoch, Epoch: &obs.EpochLine{Key: "b"}})
	p.add(StreamEvent{Kind: StreamEpoch, Epoch: &obs.EpochLine{Key: "c"}})
	p.add(StreamEvent{Kind: StreamEpoch, Epoch: &obs.EpochLine{Key: "dropped"}})
	cr := CellResult{Key: "cell"}
	p.add(StreamEvent{Kind: StreamCell, Cell: &cr})
	p.finish(StateDone, "")
	evs, closed, _ := p.snapshot(0)
	if !closed {
		t.Fatal("buffer not closed after finish")
	}
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5 (3 epochs + cell + done)", len(evs))
	}
	for i, want := range []string{"a", "b", "c"} {
		if evs[i].Kind != StreamEpoch || evs[i].Epoch.Key != want {
			t.Fatalf("event %d = %+v, want epoch %s", i, evs[i], want)
		}
	}
	if evs[3].Kind != StreamCell || evs[4].Kind != StreamDone {
		t.Fatalf("cell/done events displaced: %+v", evs)
	}
	if p.droppedEpochs != 1 {
		t.Fatalf("droppedEpochs = %d, want 1", p.droppedEpochs)
	}
}

// The epoch events a job's stream buffer drops reach the daemon's
// stream_epochs_dropped counter when the job finishes, once per job and
// summed across jobs.
func TestStreamEpochsDroppedStat(t *testing.T) {
	d := testDaemon(t, Config{})
	for i, epochs := range []int{3, 4} {
		jb := &job{status: JobStatus{ID: fmt.Sprintf("small-%d", i)}, prog: newProgress(2)}
		for e := 0; e < epochs; e++ {
			jb.prog.add(StreamEvent{Kind: StreamEpoch, Epoch: &obs.EpochLine{Key: "k"}})
		}
		d.finish(jb, StateDone, "", "")
		if again := jb.prog.finish(StateDone, ""); again != 0 {
			t.Fatalf("a closed buffer reported %d dropped epochs again", again)
		}
	}
	if got := d.Stats().StreamEpochsDropped; got != 3 {
		t.Fatalf("StreamEpochsDropped = %d, want 3 (1 + 2)", got)
	}
	b, err := json.Marshal(d.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"stream_epochs_dropped":3`) {
		t.Fatalf("stats JSON lacks stream_epochs_dropped: %s", b)
	}
}

// A real cell job's stream delivers every cell result, interleaved
// epoch snapshots, and a final done event, and the cell payloads are
// byte-equal to what the polling path decodes from the job output.
func TestStreamDeliversCellsEpochsAndDone(t *testing.T) {
	d := testDaemon(t, Config{QueueCap: 4, JobWorkers: 1})
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	spec := JobSpec{Cells: streamCells(), Workers: 1, MetricsEpoch: 5000}
	st := mustSubmit(t, d, spec)

	body, r := openStream(t, base, st.ID)
	defer body.Close()

	var (
		cells  = map[string]CellResult{}
		epochs int
		done   StreamEvent
	)
	for {
		ev := readEvent(t, r)
		switch ev.Kind {
		case StreamCell:
			cells[ev.Cell.Key] = *ev.Cell
		case StreamEpoch:
			if ev.Epoch == nil || ev.Epoch.Key == "" {
				t.Fatalf("epoch event without key: %+v", ev)
			}
			epochs++
		case StreamDone:
			done = ev
		}
		if ev.Kind == StreamDone {
			break
		}
	}
	if done.State != StateDone {
		t.Fatalf("done event state = %s (%s)", done.State, done.Error)
	}
	if epochs == 0 {
		t.Fatal("no epoch events streamed despite MetricsEpoch")
	}

	// Byte-identity with the polling path: the same CellResult values
	// decode from the terminal output.
	fin := waitState(t, d, st.ID, StateDone)
	polled, err := DecodeCellResults(strings.NewReader(fin.Output))
	if err != nil {
		t.Fatal(err)
	}
	if len(polled) != len(spec.Cells) || len(cells) != len(spec.Cells) {
		t.Fatalf("streamed %d cells, polled %d, want %d", len(cells), len(polled), len(spec.Cells))
	}
	for _, want := range polled {
		got, ok := cells[want.Key]
		if !ok {
			t.Fatalf("stream missed cell %s", want.Key)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("cell %s differs:\nstream: %+v\npoll:   %+v", want.Key, got, want)
		}
	}
}

// fakeStreamExec returns an executor that emits staged cell events:
// the first batch immediately, the rest after release is closed.
func fakeStreamExec(first, rest []string, started chan<- struct{}, release <-chan struct{}) func(context.Context, JobSpec, func(StreamEvent)) (string, error) {
	return func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) {
		for _, k := range first {
			cr := CellResult{Key: k}
			emit(StreamEvent{Kind: StreamCell, Cell: &cr})
		}
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
			return "", ctx.Err()
		}
		for _, k := range rest {
			cr := CellResult{Key: k}
			emit(StreamEvent{Kind: StreamCell, Cell: &cr})
		}
		return "", nil
	}
}

// A client that drops in the middle of a job and reconnects is served
// the whole sequence again from the first event — the cells it already
// read, then the rest as they complete, then done.
func TestStreamReconnectReplaysFromStart(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	d := testDaemon(t, Config{QueueCap: 4, JobWorkers: 1, execute: fakeStreamExec([]string{"c0", "c1", "c2"}, []string{"c3", "c4"}, started, release)})
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	st := mustSubmit(t, d, JobSpec{Experiments: []string{"fig4"}})
	<-started

	// First connection: consume the three emitted events, then drop.
	body, r := openStream(t, base, st.ID)
	for i := 0; i < 3; i++ {
		if ev := readEvent(t, r); ev.Kind != StreamCell || ev.Cell.Key != fmt.Sprintf("c%d", i) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	body.Close()

	// Reconnect while the job still runs, then release the executor:
	// the stream starts over at c0 and runs through c4 and done.
	body2, r2 := openStream(t, base, st.ID)
	defer body2.Close()
	for i := 0; i < 3; i++ {
		if ev := readEvent(t, r2); ev.Kind != StreamCell || ev.Cell.Key != fmt.Sprintf("c%d", i) {
			t.Fatalf("replayed event %d = %+v, want cell c%d", i, ev, i)
		}
	}
	close(release)
	for i := 3; i < 5; i++ {
		if ev := readEvent(t, r2); ev.Kind != StreamCell || ev.Cell.Key != fmt.Sprintf("c%d", i) {
			t.Fatalf("event %d = %+v, want cell c%d", i, ev, i)
		}
	}
	if fin := readEvent(t, r2); fin.Kind != StreamDone || fin.State != StateDone {
		t.Fatalf("final event = %+v", fin)
	}
}

// After a restart, a journal-finished job's stream is synthesized
// from its output: every cell re-delivered in spec order, then the
// done event.
func TestStreamSynthesizedAfterRestart(t *testing.T) {
	journal := tmpJournal(t)
	cells := streamCells()[:2]
	var enc strings.Builder
	results := []CellResult{{Key: cells[0].Key(), Workload: "gcc"}, {Key: cells[1].Key(), Workload: "mcf"}}
	if err := EncodeCellResults(&enc, results); err != nil {
		t.Fatal(err)
	}

	d1, _, err := New(Config{
		JournalPath: journal, QueueCap: 4, JobWorkers: 1,
		execute: func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) {
			return enc.String(), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d1.Submit(JobSpec{Cells: cells, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d1, st.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	d2, _, err := New(Config{JournalPath: journal, QueueCap: 4, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		d2.Shutdown(sctx)
	}()
	addr, err := d2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	body, r := openStream(t, "http://"+addr.String(), st.ID)
	defer body.Close()
	for i, want := range results {
		ev := readEvent(t, r)
		if ev.Kind != StreamCell || ev.Cell.Key != want.Key {
			t.Fatalf("synthesized event %d = %+v, want cell %s", i, ev, want.Key)
		}
	}
	fin := readEvent(t, r)
	if fin.Kind != StreamDone || fin.State != StateDone {
		t.Fatalf("synthesized final event = %+v", fin)
	}
}

// Streaming an unknown job is a 404, not a hung connection.
func TestStreamUnknownJob(t *testing.T) {
	d := testDaemon(t, Config{QueueCap: 4, JobWorkers: 1})
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/jobs/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %s, want 404", resp.Status)
	}
}

// The slowloris defense: a connection that sends a partial request
// and stalls must be dropped once ReadHeaderTimeout expires, not held
// open forever.
func TestStalledHeaderConnDropped(t *testing.T) {
	d := testDaemon(t, Config{QueueCap: 4, JobWorkers: 1, readHeaderTimeout: 200 * time.Millisecond})
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /jobs HTT")); err != nil { // stalls mid-request-line
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server closed the connection (or test deadline hit)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled-header connection survived %v, want drop near the 200ms ReadHeaderTimeout", elapsed)
	}
}

// Start arms the server with the fixed HTTP limits. A limit that
// drifted to zero would mean no timeout at all and still pass the
// slowloris test above (it overrides the header timeout), so the
// values are pinned here; WriteTimeout must stay zero, or the server
// would cut long-lived /stream responses.
func TestStartServerTimeouts(t *testing.T) {
	d := testDaemon(t, Config{QueueCap: 4, JobWorkers: 1})
	if _, err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", d.srv.ReadHeaderTimeout, 5 * time.Second},
		{"ReadTimeout", d.srv.ReadTimeout, time.Minute},
		{"IdleTimeout", d.srv.IdleTimeout, 2 * time.Minute},
		{"WriteTimeout", d.srv.WriteTimeout, 0},
	} {
		if c.got != c.want {
			t.Errorf("http.Server.%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// Dropped stream connections must not leak handler goroutines, and a
// daemon with live streams must still shut down cleanly.
func TestStreamDroppedConnNoLeak(t *testing.T) {
	verify := leakcheck.Check(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	d, _, err := New(Config{JournalPath: tmpJournal(t), QueueCap: 4, JobWorkers: 1, execute: fakeStreamExec([]string{"c0"}, []string{"c1"}, started, release)})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	st, err := d.Submit(JobSpec{Experiments: []string{"fig4"}})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Open several streams mid-job and drop them all: each handler
	// goroutine must unblock on the closed request context.
	for i := 0; i < 4; i++ {
		body, r := openStream(t, base, st.ID)
		readEvent(t, r) // ensure the handler is past its first write
		body.Close()
	}

	// A second job stays queued (the single worker is busy) and its
	// stream has no events to deliver: the handler blocks. Shutdown
	// must wake it via stopStreams, not hang the HTTP drain on it.
	queued, err := d.Submit(JobSpec{Experiments: []string{"fig10"}})
	if err != nil {
		t.Fatal(err)
	}
	blocked, _ := openStream(t, base, queued.ID)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownDone <- d.Shutdown(ctx)
	}()
	// Admission is closed the moment Shutdown begins; only then
	// release the running job so the worker exits without ever
	// picking up the queued one.
	deadline := time.Now().Add(10 * time.Second)
	for !d.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("shutdown never started draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatal(err)
	}
	// The remaining goroutines to drain are the *client's*: the
	// still-open stream body and the transport's keep-alive loops.
	blocked.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	verify()
}
