package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Sweep acceptance smoke (make sweep-smoke, DICE_SMOKE=1): build the
// real dicesweep and dicebenchd binaries and drive the full
// acceptance bar from the outside — a three-axis spec expanding past
// 200 cells runs locally at workers 8 and workers 1 and sharded over
// a live daemon with byte-identical frontier exports, and a sweep
// killed mid-run resumes without re-running logged cells.

var (
	buildOnce  sync.Once
	buildErr   error
	sweepBin   string
	benchdBin  string
	cellCensus = regexp.MustCompile(`expands to (\d+) cells`)
	ranCounts  = regexp.MustCompile(`\((\d+) run now, (\d+) replayed\)`)
)

func binaries(t *testing.T) (sweep, benchd string) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dicesweep-bin")
		if err != nil {
			buildErr = err
			return
		}
		sweepBin = filepath.Join(dir, "dicesweep")
		benchdBin = filepath.Join(dir, "dicebenchd")
		for bin, pkg := range map[string]string{sweepBin: "dice/cmd/dicesweep", benchdBin: "dice/cmd/dicebenchd"} {
			out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
			if err != nil {
				buildErr = fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return sweepBin, benchdBin
}

// sweepSmoke is the acceptance spec: three swept axes (policy,
// threshold, latency) over the 16-workload rate suite — 288 requested
// cells plus 32 auto-added baselines, comfortably past the 200-cell
// bar at a reference budget small enough to finish in seconds.
const sweepSmoke = `
name = sweep-smoke
refs = 120
workload = rate
policy = base tsi dice
threshold = 24 36 48
latency = full half
`

// runSweep invokes the dicesweep binary and returns its combined
// output, failing the test unless the exit status matches wantOK.
func runSweep(t *testing.T, wantOK bool, args ...string) string {
	t.Helper()
	sweep, _ := binaries(t)
	cmd := exec.Command(sweep, args...)
	out, err := cmd.CombinedOutput()
	if wantOK && err != nil {
		t.Fatalf("dicesweep %v: %v\n%s", args, err, out)
	}
	if !wantOK && err == nil {
		t.Fatalf("dicesweep %v succeeded, expected failure\n%s", args, out)
	}
	return string(out)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepSmokeLocalDaemonParity is the headline acceptance run:
// local workers 8 vs workers 1 vs daemon-sharded (streamed, at workers
// 8 and 1) — all frontier exports byte-identical, cells/hour recorded to
// BENCH_pr10.json, and the streamed epoch-metrics NDJSON non-empty and
// well-formed.
func TestSweepSmokeLocalDaemonParity(t *testing.T) {
	if os.Getenv("DICE_SMOKE") == "" {
		t.Skip("set DICE_SMOKE=1 (make sweep-smoke) to run the sweep acceptance smoke")
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "smoke.sweep")
	if err := os.WriteFile(specPath, []byte(sweepSmoke), 0o644); err != nil {
		t.Fatal(err)
	}
	benchPath, err := filepath.Abs("../../BENCH_pr10.json")
	if err != nil {
		t.Fatal(err)
	}

	out8 := runSweep(t, true,
		"-spec", specPath, "-log", filepath.Join(dir, "l8.results"),
		"-out", filepath.Join(dir, "f8"), "-workers", "8", "-bench-out", benchPath)
	m := cellCensus.FindStringSubmatch(out8)
	if m == nil {
		t.Fatalf("no cell census in output:\n%s", out8)
	}
	if n, _ := strconv.Atoi(m[1]); n < 200 {
		t.Fatalf("spec expands to %d cells, acceptance bar is >= 200", n)
	}
	if _, err := os.Stat(benchPath); err != nil {
		t.Fatalf("bench record not written: %v", err)
	}

	runSweep(t, true,
		"-spec", specPath, "-log", filepath.Join(dir, "l1.results"),
		"-out", filepath.Join(dir, "f1"), "-workers", "1")
	for _, ext := range []string{".csv", ".json"} {
		w8 := readFile(t, filepath.Join(dir, "f8"+ext))
		w1 := readFile(t, filepath.Join(dir, "f1"+ext))
		if string(w8) != string(w1) {
			t.Fatalf("frontier%s diverges between workers 8 and 1", ext)
		}
	}

	// Shard the same matrix over a live dicebenchd subprocess, streamed
	// at workers 8 and workers 1. Both frontiers must match the local
	// bytes: sharding changes where cells run, never what they contain.
	d := startBenchd(t, "-journal", filepath.Join(dir, "d.journal"), "-q")
	metricsPath := filepath.Join(dir, "epochs.ndjson")
	shardRuns := []struct {
		name string
		args []string
	}{
		{"fd8", []string{"-workers", "8", "-metrics-epoch", "500", "-metrics-out", metricsPath}},
		{"fd1", []string{"-workers", "1"}},
	}
	for _, sr := range shardRuns {
		runSweep(t, true, append([]string{
			"-spec", specPath, "-log", filepath.Join(dir, sr.name+".results"),
			"-out", filepath.Join(dir, sr.name),
			"-daemons", "http://" + d.addr, "-batch", "64",
		}, sr.args...)...)
		for _, ext := range []string{".csv", ".json"} {
			local := readFile(t, filepath.Join(dir, "f8"+ext))
			shard := readFile(t, filepath.Join(dir, sr.name+ext))
			if string(local) != string(shard) {
				t.Fatalf("frontier%s diverges between local and daemon-sharded run %s", ext, sr.name)
			}
		}
	}

	// The streamed epoch metrics landed as parseable NDJSON.
	lines := strings.Split(strings.TrimRight(string(readFile(t, metricsPath)), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no epoch snapshots streamed to -metrics-out")
	}
	for i, ln := range lines {
		var ep struct {
			Key  string          `json:"key"`
			Snap json.RawMessage `json:"snap"`
		}
		if err := json.Unmarshal([]byte(ln), &ep); err != nil || ep.Key == "" || len(ep.Snap) == 0 {
			t.Fatalf("metrics line %d malformed (%v): %s", i, err, ln)
		}
	}
	t.Logf("sweep-smoke: %d epoch snapshots streamed", len(lines))
}

// TestSweepSmokeStreamSurvivesDaemonKill SIGKILLs the daemon while a
// streaming sweep is mid-flight — cells already checkpointed, the job
// stream open — then restarts it on the same port with the same
// journal. The sweep's reconnect loop must ride through the outage,
// absorb the new generation's re-delivery without duplicating cells in
// the results log, and finish with frontier bytes identical to a local
// run.
func TestSweepSmokeStreamSurvivesDaemonKill(t *testing.T) {
	if os.Getenv("DICE_SMOKE") == "" {
		t.Skip("set DICE_SMOKE=1 (make sweep-smoke) to run the sweep acceptance smoke")
	}
	dir := t.TempDir()
	// A heavier budget over a 32-cell matrix so the kill reliably lands
	// while batches are still streaming.
	spec := "name = stream-kill\nrefs = 5000\nworkload = rate\npolicy = base dice\n"
	specPath := filepath.Join(dir, "kill.sweep")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "ls.results")
	journal := filepath.Join(dir, "d.journal")

	// A fixed port so the restarted daemon is reachable at the same
	// base URL the sweep is retrying.
	addr := freeAddr(t)
	d1 := startBenchd(t, "-addr", addr, "-journal", journal, "-q")

	sweep, _ := binaries(t)
	cmd := exec.Command(sweep,
		"-spec", specPath, "-log", logPath, "-out", filepath.Join(dir, "fs"),
		"-daemons", "http://"+addr, "-batch", "8", "-workers", "2")
	var outBuf strings.Builder
	cmd.Stdout = &outBuf
	cmd.Stderr = &outBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sweepDone := make(chan error, 1)
	go func() { sweepDone <- cmd.Wait() }()

	// Wait until streamed cells are hitting the results log — proof the
	// stream is live — then kill the daemon without ceremony.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if fi, err := os.Stat(logPath); err == nil && fi.Size() > 0 {
			break
		}
		select {
		case err := <-sweepDone:
			t.Fatalf("sweep exited before streaming began: %v\n%s", err, outBuf.String())
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no streamed cell ever reached the results log\n%s", outBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.cmd.Process.Kill()
	<-d1.done

	// Restart on the same port with the same journal; unfinished jobs
	// replay under a fresh generation and re-deliver.
	startBenchd(t, "-addr", addr, "-journal", journal, "-q")

	if err := <-sweepDone; err != nil {
		t.Fatalf("sweep did not survive the daemon kill: %v\n%s", err, outBuf.String())
	}

	// Exactly-once checkpointing: 32 distinct cells, no duplicates,
	// despite the new generation re-streaming delivered cells.
	keys := map[string]int{}
	for _, ln := range strings.Split(strings.TrimRight(string(readFile(t, logPath)), "\n"), "\n") {
		var cell struct {
			Key string `json:"key"`
		}
		payload := ln
		if i := strings.IndexByte(ln, ' '); i >= 0 {
			payload = ln[i+1:] // strip the CRC frame prefix
		}
		if err := json.Unmarshal([]byte(payload), &cell); err != nil || cell.Key == "" {
			t.Fatalf("results-log line malformed (%v): %s", err, ln)
		}
		keys[cell.Key]++
	}
	if len(keys) != 32 {
		t.Fatalf("results log holds %d distinct cells, want 32", len(keys))
	}
	for k, n := range keys {
		if n != 1 {
			t.Fatalf("cell %s checkpointed %d times (restart re-delivery not deduplicated)", k, n)
		}
	}

	// And the survived sweep's frontier matches an uninterrupted local run.
	runSweep(t, true,
		"-spec", specPath, "-log", filepath.Join(dir, "lref.results"),
		"-out", filepath.Join(dir, "fref"), "-workers", "4")
	for _, ext := range []string{".csv", ".json"} {
		got := readFile(t, filepath.Join(dir, "fs"+ext))
		want := readFile(t, filepath.Join(dir, "fref"+ext))
		if string(got) != string(want) {
			t.Fatalf("frontier%s diverges after daemon kill/restart", ext)
		}
	}
}

// freeAddr picks a free localhost TCP address by binding and releasing
// it — the daemon restart needs a port known in advance.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestSweepSmokeKillResume interrupts a serial sweep mid-run with
// SIGINT, then re-invokes it with -resume: the logged cells replay
// instead of re-running, the sweep completes, and the resumed
// frontier is byte-identical to an uninterrupted run's.
func TestSweepSmokeKillResume(t *testing.T) {
	if os.Getenv("DICE_SMOKE") == "" {
		t.Skip("set DICE_SMOKE=1 (make sweep-smoke) to run the sweep acceptance smoke")
	}
	dir := t.TempDir()
	// A heavier per-cell budget over a smaller matrix (32 cells), so
	// SIGINT reliably lands while cells are still queued at workers 1.
	spec := "name = kill-resume\nrefs = 5000\nworkload = rate\npolicy = base dice\n"
	specPath := filepath.Join(dir, "kill.sweep")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "lk.results")

	sweep, _ := binaries(t)
	cmd := exec.Command(sweep,
		"-spec", specPath, "-log", logPath,
		"-out", filepath.Join(dir, "fk"), "-workers", "1")
	var outBuf strings.Builder
	cmd.Stdout = &outBuf
	cmd.Stderr = &outBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the first completed cell to hit the results log, then
	// interrupt without ceremony.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if fi, err := os.Stat(logPath); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no cell ever reached the results log\n%s", outBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	interrupted := err != nil // exit 1 unless the sweep won the race and finished

	// Resume: logged cells replay, only the rest run.
	resumeOut := runSweep(t, true,
		"-spec", specPath, "-log", logPath,
		"-out", filepath.Join(dir, "fk"), "-workers", "1", "-resume")
	m := ranCounts.FindStringSubmatch(resumeOut)
	if m == nil {
		t.Fatalf("no run/replay counts in resume output:\n%s", resumeOut)
	}
	ran, _ := strconv.Atoi(m[1])
	replayed, _ := strconv.Atoi(m[2])
	if replayed == 0 {
		t.Fatalf("resume replayed no cells (interrupted=%v):\n%s", interrupted, resumeOut)
	}
	if interrupted && ran == 0 {
		t.Fatalf("interrupted sweep left nothing to run:\n%s", resumeOut)
	}
	if ran+replayed != 32 {
		t.Fatalf("resume accounts for %d+%d cells, want 32", ran, replayed)
	}

	// Without -resume, a populated log is an error, never overwritten.
	refuse := runSweep(t, false,
		"-spec", specPath, "-log", logPath, "-out", filepath.Join(dir, "fx"))
	if !strings.Contains(refuse, "-resume") {
		t.Fatalf("populated-log refusal does not mention -resume:\n%s", refuse)
	}

	// The interrupted-then-resumed frontier matches an uninterrupted run.
	runSweep(t, true,
		"-spec", specPath, "-log", filepath.Join(dir, "lref.results"),
		"-out", filepath.Join(dir, "fref"), "-workers", "4")
	for _, ext := range []string{".csv", ".json"} {
		resumed := readFile(t, filepath.Join(dir, "fk"+ext))
		ref := readFile(t, filepath.Join(dir, "fref"+ext))
		if string(resumed) != string(ref) {
			t.Fatalf("resumed frontier%s diverges from an uninterrupted run", ext)
		}
	}
}

// benchdProc is one running dicebenchd subprocess plus its scraped
// address (the same harness cmd/dicebenchd's own smoke tests use).
type benchdProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startBenchd launches dicebenchd on an ephemeral port and scrapes
// the "listening on" line for the bound address.
func startBenchd(t *testing.T, args ...string) *benchdProc {
	t.Helper()
	_, benchd := binaries(t)
	cmd := exec.Command(benchd, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &benchdProc{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "dicebenchd: listening on "); ok {
				select {
				case addrCh <- strings.TrimSpace(a):
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	go func() { p.done <- cmd.Wait() }()
	select {
	case p.addr = <-addrCh:
	case err := <-p.done:
		t.Fatalf("dicebenchd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("dicebenchd never printed its address")
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			<-p.done
		}
	})
	return p
}
