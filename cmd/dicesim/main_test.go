package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dice/internal/experiments"
	"dice/internal/obs"
	"dice/internal/sim"
)

// TestValidateFlags pins the parse-time rejection of flag values the
// flag types allow but the runtime can't use: -metrics-epoch 0 used to
// panic inside obs.NewRecorder, and a negative -workers silently meant
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

// TestBuildConfig pins the flag-to-cell mapping by key: every policy,
// org and prefetch name dicesim accepts, in any case, yields the
// lowercased CellSpec field, the flag defaults and any spelled-out
// default give the catalog's key, and unknown names and out-of-range
// values are rejected before any simulation starts.
func TestBuildConfig(t *testing.T) {
	// base is the cell the flag defaults produce.
	base := experiments.CellSpec{Workload: "gcc", Policy: "dice"}
	with := func(f func(*experiments.CellSpec)) experiments.CellSpec {
		c := base
		f(&c)
		return c
	}
	cases := []struct {
		args    []string
		want    experiments.CellSpec
		wantErr string
	}{
		{args: nil, want: base},
		{args: []string{"-policy", "base"}, want: with(func(c *experiments.CellSpec) { c.Policy = "base" })},
		{args: []string{"-policy", "tsi"}, want: with(func(c *experiments.CellSpec) { c.Policy = "tsi" })},
		{args: []string{"-policy", "nsi"}, want: with(func(c *experiments.CellSpec) { c.Policy = "nsi" })},
		{args: []string{"-policy", "bai"}, want: with(func(c *experiments.CellSpec) { c.Policy = "bai" })},
		{args: []string{"-policy", "dice"}, want: base},
		{args: []string{"-policy", "scc"}, want: with(func(c *experiments.CellSpec) { c.Policy = "scc" })},
		{args: []string{"-policy", "BAI"}, want: with(func(c *experiments.CellSpec) { c.Policy = "bai" })},
		{args: []string{"-policy", ""}, want: with(func(c *experiments.CellSpec) { c.Policy = "base" })},
		{args: []string{"-org", "alloy"}, want: base},
		{args: []string{"-org", "Alloy"}, want: base},
		{args: []string{"-org", "knl"}, want: with(func(c *experiments.CellSpec) { c.Org = "knl" })},
		{args: []string{"-org", "KNL"}, want: with(func(c *experiments.CellSpec) { c.Org = "knl" })},
		{args: []string{"-prefetch", "none"}, want: base},
		{args: []string{"-fault-policy", "ecc+quarantine"}, want: base},
		{args: []string{"-threshold", "36", "-cap", "1", "-bw", "1"}, want: base},
		{args: []string{"-fault-seed", "5", "-fault-policy", "none"}, want: base},
		{args: []string{"-policy", "base", "-org", "alloy", "-prefetch", "none"},
			want: experiments.CellSpec{Workload: "gcc"}.Baseline()},
		{args: []string{"-prefetch", "nextline"}, want: with(func(c *experiments.CellSpec) { c.Prefetch = "nextline" })},
		{args: []string{"-prefetch", "wide128"}, want: with(func(c *experiments.CellSpec) { c.Prefetch = "wide128" })},
		{args: []string{"-prefetch", "Wide128"}, want: with(func(c *experiments.CellSpec) { c.Prefetch = "wide128" })},
		{
			args: []string{"-refs", "3000", "-scale", "12", "-cap", "2", "-bw", "2", "-halflat",
				"-threshold", "40", "-fault-ber", "1e-6", "-fault-seed", "9", "-fault-policy", "ecc"},
			want: with(func(c *experiments.CellSpec) {
				c.Refs, c.Scale, c.Capacity, c.BW = 3000, 12, 2, 2
				c.HalfLat, c.Threshold = true, 40
				c.BER, c.FaultSeed, c.FaultPolicy = 1e-6, 9, "ecc"
			}),
		},
		{args: []string{"-policy", "lru"}, wantErr: "unknown policy"},
		{args: []string{"-workload", "nope"}, wantErr: "nope"},
		{args: []string{"-org", "hbm"}, wantErr: "unknown org"},
		{args: []string{"-prefetch", "stride"}, wantErr: "unknown prefetch"},
		{args: []string{"-cap", "5"}, wantErr: "CapacityMult"},
		{args: []string{"-threshold", "100"}, wantErr: "Threshold 100"},
		{args: []string{"-fault-policy", "parity"}, wantErr: "unknown policy"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("dicesim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o := registerFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := cellFromFlags(o)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("cellFromFlags(%q) err = %v, want %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("cellFromFlags(%q): %v", tc.args, err)
			}
			if got.Key() != tc.want.Key() {
				t.Fatalf("cellFromFlags(%q) =\n%s\nwant\n%s", tc.args, got.Key(), tc.want.Key())
			}
		})
	}
}

// buildDicesim builds the dicesim binary into a test temp dir.
func buildDicesim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dicesim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestMetricsOutWritesEpochLines builds dicesim, runs a short
// simulation with -metrics-out, and requires every line of the file to
// decode as exactly one obs.EpochLine keyed by the cell's
// CellSpec.Key() with a stamped snapshot — the shape and key dicebench,
// dicesweep and the daemon stream use.
func TestMetricsOutWritesEpochLines(t *testing.T) {
	bin := buildDicesim(t)
	path := filepath.Join(t.TempDir(), "epochs.ndjson")
	out, err := exec.Command(bin, "-workload", "gcc", "-refs", "300", "-scale", "12",
		"-metrics-epoch", "2000", "-metrics-out", path).CombinedOutput()
	if err != nil {
		t.Fatalf("dicesim: %v\n%s", err, out)
	}
	key := experiments.CellSpec{Workload: "gcc", Policy: "dice", Refs: 300, Scale: 12}.Key()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	n := 0
	for ; dec.More(); n++ {
		var l obs.EpochLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if l.Key != key || l.Snap.Epoch != uint64(n) || l.Snap.Cycles != 2000 || len(l.Snap.CoreIPC) == 0 {
			t.Fatalf("line %d is not epoch %d of %s: %+v", n, n, key, l)
		}
	}
	if n == 0 {
		t.Fatal("no epoch lines written")
	}
	if want := fmt.Sprintf("wrote %d epochs to %s", n, path); !strings.Contains(string(out), want) {
		t.Fatalf("output does not report %q:\n%s", want, out)
	}
}

// TestMetricsOutKeepsEveryEpoch runs a simulation long enough to record
// more than 4096 epochs and requires the file to hold every one of
// them, numbered 0..n-1 with no gap.
func TestMetricsOutKeepsEveryEpoch(t *testing.T) {
	bin := buildDicesim(t)
	path := filepath.Join(t.TempDir(), "epochs.ndjson")
	out, err := exec.Command(bin, "-workload", "gcc", "-refs", "300", "-scale", "12",
		"-metrics-epoch", "5", "-metrics-out", path).CombinedOutput()
	if err != nil {
		t.Fatalf("dicesim: %v\n%s", err, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	n := 0
	for ; dec.More(); n++ {
		var l obs.EpochLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if l.Snap.Epoch != uint64(n) {
			t.Fatalf("line %d holds epoch %d", n, l.Snap.Epoch)
		}
	}
	if n <= 4096 {
		t.Fatalf("run wrote %d epochs; the check needs more than 4096", n)
	}
	if want := fmt.Sprintf("wrote %d epochs to %s", n, path); !strings.Contains(string(out), want) {
		t.Fatalf("output does not report %q:\n%s", want, out)
	}
}

// TestTraceEventsStream builds dicesim and pins -trace-events end to
// end: a tiny cell traced for "sim" prints its one measurement-start
// event ahead of the results and then the event count, and an unknown
// component fails with one line before anything simulates.
func TestTraceEventsStream(t *testing.T) {
	bin := buildDicesim(t)
	t.Run("sim", func(t *testing.T) {
		out, err := exec.Command(bin, "-workload", "gcc", "-refs", "300", "-scale", "12",
			"-trace-events", "sim").Output()
		if err != nil {
			t.Fatalf("dicesim: %v\n%s", err, out)
		}
		text := string(out)
		if n := strings.Count(text, " measurement-start "); n != 1 {
			t.Fatalf("printed %d measurement-start lines, want 1:\n%s", n, text)
		}
		ev, count, res := strings.Index(text, "] sim    measurement-start "),
			strings.Index(text, "traced 1 events\n"), strings.Index(text, "cycles (measured window)")
		if ev < 0 || count < ev || res < count {
			t.Fatalf("want the event line, then \"traced 1 events\", then the results:\n%s", text)
		}
	})
	t.Run("bogus", func(t *testing.T) {
		cmd := exec.Command(bin, "-workload", "gcc", "-refs", "300", "-scale", "12",
			"-trace-events", "bogus")
		out, err := cmd.CombinedOutput()
		if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 1 {
			t.Fatalf("want exit 1, got %v:\n%s", err, out)
		}
		if lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n"); len(lines) != 1 ||
			!strings.Contains(lines[0], `unknown trace component "bogus"`) {
			t.Fatalf("want one line naming the bad component, got:\n%s", out)
		}
	})
}

// TestUnwritableMetricsOutFailsUpFront pins that a -metrics-out path
// that cannot be created fails before the simulation runs.
func TestUnwritableMetricsOutFailsUpFront(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "epochs.ndjson")
	out, err := exec.Command(buildDicesim(t), "-workload", "gcc", "-refs", "300", "-scale", "12",
		"-metrics-out", path).CombinedOutput()
	if err == nil {
		t.Fatalf("dicesim -metrics-out %s succeeded:\n%s", path, out)
	}
	if !strings.Contains(string(out), "no such file or directory") || strings.Contains(string(out), "cycles (measured window)") {
		t.Fatalf("want an up-front open error and no run, got:\n%s", out)
	}
}

// TestBaselineIsFaultFree runs dicesim -baseline on a cell with
// injected faults and requires the printed speedup to be measured
// against CellSpec.Baseline() — the fault-free uncompressed design the
// catalog normalizes against — not against a faulty baseline.
func TestBaselineIsFaultFree(t *testing.T) {
	bin := buildDicesim(t)
	out, err := exec.Command(bin, "-workload", "gcc", "-refs", "3000", "-scale", "12",
		"-fault-ber", "3e-3", "-baseline").CombinedOutput()
	if err != nil {
		t.Fatalf("dicesim: %v\n%s", err, out)
	}
	cell := experiments.CellSpec{Workload: "gcc", Policy: "dice", Refs: 3000, Scale: 12, BER: 3e-3}
	faulty := cell.Baseline()
	faulty.BER = cell.BER
	res, err := experiments.NewRunner(0).RunCells(context.Background(),
		[]experiments.CellSpec{cell, cell.Baseline(), faulty}, nil)
	if err != nil {
		t.Fatal(err)
	}
	line := func(base experiments.CellSpec) string {
		return fmt.Sprintf("weighted speedup vs uncompressed baseline: %.3f",
			sim.Speedup(res[base.Key()], res[cell.Key()]))
	}
	if line(faulty) == line(cell.Baseline()) {
		t.Fatalf("the faulty and fault-free baselines give the same %q; the check cannot tell them apart", line(faulty))
	}
	if !strings.Contains(string(out), line(cell.Baseline())) {
		t.Fatalf("output lacks %q (the faulty baseline gives %q):\n%s", line(cell.Baseline()), line(faulty), out)
	}
}

// TestBaselineOfBaseSimulatesOnce: a cell that is its own baseline
// (-policy base -baseline) is one runner key, so it simulates once.
func TestBaselineOfBaseSimulatesOnce(t *testing.T) {
	r := experiments.NewRunner(0)
	r.Workers = 2
	cell := experiments.CellSpec{Workload: "gcc", Policy: "base", Refs: 300, Scale: 12}
	res, err := simulate(context.Background(), r, cell, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sims() != 1 || len(res) != 1 {
		t.Fatalf("-policy base -baseline ran %d simulations for %d results, want 1", r.Sims(), len(res))
	}
}

// TestErrorExitWritesProfiles pins that a nonzero exit after profiling
// has started still stops the CPU profile and writes the heap profile:
// both files must parse. An os.Exit past the deferred calls used to
// leave an empty CPU profile and no heap profile.
func TestErrorExitWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	out, err := exec.Command(buildDicesim(t), "-workload", "bogus",
		"-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	if err == nil || !strings.Contains(string(out), `unknown workload "bogus"`) {
		t.Fatalf("want an unknown-workload error exit, got %v:\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		if out, err := exec.Command("go", "tool", "pprof", "-raw", p).CombinedOutput(); err != nil {
			t.Fatalf("%s does not parse: %v\n%s", filepath.Base(p), err, out)
		}
	}
}
