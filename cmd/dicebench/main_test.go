package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dice/internal/obs"
)

// TestValidateFlags pins the parse-time rejection of flag values the
// flag types allow but the runtime can't use: -metrics-epoch 0 used to
// panic inside the runner, and a negative -workers silently meant
// "one per CPU".
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name         string
		metricsEpoch uint64
		workers      int
		wantErr      string
	}{
		{name: "defaults", metricsEpoch: 100_000, workers: 0},
		{name: "serial workers", metricsEpoch: 100_000, workers: 1},
		{name: "many workers", metricsEpoch: 1, workers: 64},
		{name: "zero epoch", metricsEpoch: 0, workers: 0, wantErr: "-metrics-epoch"},
		{name: "negative workers", metricsEpoch: 100_000, workers: -1, wantErr: "-workers"},
		{name: "very negative workers", metricsEpoch: 100_000, workers: -100, wantErr: "-workers"},
		{name: "both invalid reports epoch first", metricsEpoch: 0, workers: -1, wantErr: "-metrics-epoch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.metricsEpoch, tc.workers)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%d, %d) = %v, want nil", tc.metricsEpoch, tc.workers, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%d, %d) = nil, want error mentioning %q", tc.metricsEpoch, tc.workers, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}

// buildDicebench compiles the command into a temporary directory.
func buildDicebench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dicebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestMetricsOutWritesEpochLines runs one short experiment with
// -metrics-out at workers 1 and 2. Every line must decode as exactly
// one obs.EpochLine with a key and a stamped snapshot — the shape
// dicesim, dicesweep and the daemon stream use — with keys in sorted
// order, and the two files must be byte-identical.
func TestMetricsOutWritesEpochLines(t *testing.T) {
	bin := buildDicebench(t)
	dir := t.TempDir()
	var files [][]byte
	for _, workers := range []string{"1", "2"} {
		path := filepath.Join(dir, "epochs-"+workers+".ndjson")
		out, err := exec.Command(bin, "-run", "fig11", "-refs", "200", "-scale", "12", "-workers", workers,
			"-metrics-epoch", "2000", "-metrics-out", path).CombinedOutput()
		if err != nil {
			t.Fatalf("dicebench: %v\n%s", err, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, b)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("-metrics-out differs between -workers 1 and 2")
	}
	dec := json.NewDecoder(bytes.NewReader(files[0]))
	dec.DisallowUnknownFields()
	keys := map[string]bool{}
	prev := ""
	for n := 0; dec.More(); n++ {
		var l obs.EpochLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if l.Key == "" || l.Key < prev || l.Snap.Cycles != 2000 || len(l.Snap.CoreIPC) == 0 {
			t.Fatalf("line %d (after key %q) is not a stamped epoch line: %+v", n, prev, l)
		}
		prev = l.Key
		keys[l.Key] = true
	}
	if len(keys) < 2 {
		t.Fatalf("epoch lines from %d simulations, want several", len(keys))
	}
}

// TestNegativeRefsFailsUpFront pins that -refs -1 (and a -scale past
// the simulator's bound) is rejected by the up-front config
// validation, before any simulation runs.
func TestNegativeRefsFailsUpFront(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-refs", "-1", "RefsPerCore"},
		{"-scale", "19", "ScaleShift"},
	} {
		out, err := exec.Command(buildDicebench(t), "-run", "fig10", tc.flag, tc.value).CombinedOutput()
		if err == nil {
			t.Fatalf("dicebench %s %s succeeded:\n%s", tc.flag, tc.value, out)
		}
		if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "simulations") {
			t.Fatalf("want an up-front %s error and no run, got:\n%s", tc.want, out)
		}
	}
}

// TestUnwritableMetricsOutFailsUpFront pins that a -metrics-out path
// that cannot be created fails before any simulation runs, not after
// the whole run.
func TestUnwritableMetricsOutFailsUpFront(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "epochs.ndjson")
	out, err := exec.Command(buildDicebench(t), "-run", "fig10", "-refs", "2000", "-metrics-out", path).CombinedOutput()
	if err == nil {
		t.Fatalf("dicebench -metrics-out %s succeeded:\n%s", path, out)
	}
	if !strings.Contains(string(out), "no such file or directory") || strings.Contains(string(out), "simulations") {
		t.Fatalf("want an up-front open error and no run, got:\n%s", out)
	}
}

// TestErrorExitWritesProfiles pins that a nonzero exit after profiling
// has started still stops the CPU profile and writes the heap profile:
// both files must parse. An os.Exit past the deferred calls used to
// leave an empty CPU profile and no heap profile.
func TestErrorExitWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	out, err := exec.Command(buildDicebench(t), "-run", "bogus",
		"-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "bogus") {
		t.Fatalf("want an unknown-experiment error exit, got %v:\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		if out, err := exec.Command("go", "tool", "pprof", "-raw", p).CombinedOutput(); err != nil {
			t.Fatalf("%s does not parse: %v\n%s", filepath.Base(p), err, out)
		}
	}
}
