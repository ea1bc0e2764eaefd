package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dice/internal/dcache"
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

// TestBuildConfig pins the flag-to-config mapping: every policy, org
// and prefetch name dicesim accepts, in any case, yields the sim.Config
// it always has, and unknown names and out-of-range values are
// rejected before any simulation starts.
func TestBuildConfig(t *testing.T) {
	// base is the configuration the flag defaults produce.
	base := sim.Config{Policy: dcache.PolicyDICE, CapacityMult: 1, BWMult: 1, FaultPolicy: "ecc+quarantine"}
	with := func(f func(*sim.Config)) sim.Config {
		c := base
		f(&c)
		return c
	}
	cases := []struct {
		args    []string
		want    sim.Config
		wantErr string
	}{
		{args: nil, want: base},
		{args: []string{"-policy", "base"}, want: with(func(c *sim.Config) { c.Policy = dcache.PolicyUncompressed })},
		{args: []string{"-policy", "tsi"}, want: with(func(c *sim.Config) { c.Policy = dcache.PolicyTSI })},
		{args: []string{"-policy", "nsi"}, want: with(func(c *sim.Config) { c.Policy = dcache.PolicyNSI })},
		{args: []string{"-policy", "bai"}, want: with(func(c *sim.Config) { c.Policy = dcache.PolicyBAI })},
		{args: []string{"-policy", "dice"}, want: base},
		{args: []string{"-policy", "scc"}, want: with(func(c *sim.Config) { c.Policy = dcache.PolicySCC })},
		{args: []string{"-policy", "BAI"}, want: with(func(c *sim.Config) { c.Policy = dcache.PolicyBAI })},
		{args: []string{"-org", "alloy"}, want: base},
		{args: []string{"-org", "knl"}, want: with(func(c *sim.Config) { c.Org = dcache.OrgKNL })},
		{args: []string{"-org", "KNL"}, want: with(func(c *sim.Config) { c.Org = dcache.OrgKNL })},
		{args: []string{"-prefetch", "none"}, want: base},
		{args: []string{"-prefetch", "nextline"}, want: with(func(c *sim.Config) { c.Prefetch = sim.PrefetchNextLine })},
		{args: []string{"-prefetch", "wide128"}, want: with(func(c *sim.Config) { c.Prefetch = sim.PrefetchWide128 })},
		{args: []string{"-prefetch", "Wide128"}, want: with(func(c *sim.Config) { c.Prefetch = sim.PrefetchWide128 })},
		{
			args: []string{"-refs", "3000", "-scale", "12", "-cap", "2", "-bw", "2", "-halflat",
				"-threshold", "40", "-fault-ber", "1e-6", "-fault-seed", "9", "-fault-policy", "ecc"},
			want: with(func(c *sim.Config) {
				c.RefsPerCore, c.ScaleShift, c.CapacityMult, c.BWMult = 3000, 12, 2, 2
				c.HalfLatency, c.Threshold = true, 40
				c.FaultBER, c.FaultSeed, c.FaultPolicy = 1e-6, 9, "ecc"
			}),
		},
		{args: []string{"-policy", "lru"}, wantErr: "unknown policy"},
		{args: []string{"-policy", ""}, wantErr: "unknown policy"},
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
			got, err := buildConfig(o)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("buildConfig(%q) err = %v, want %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("buildConfig(%q): %v", tc.args, err)
			}
			if got != tc.want {
				t.Fatalf("buildConfig(%q) =\n%+v\nwant\n%+v", tc.args, got, tc.want)
			}
		})
	}
}

// TestMetricsOutWritesEpochLines builds dicesim, runs a short
// simulation with -metrics-out, and requires every line of the file to
// decode as exactly one obs.EpochLine with a key and a stamped
// snapshot — the shape dicebench, dicesweep and the daemon stream use.
func TestMetricsOutWritesEpochLines(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "dicesim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	path := filepath.Join(dir, "epochs.ndjson")
	out, err := exec.Command(bin, "-workload", "gcc", "-refs", "300", "-scale", "12",
		"-metrics-epoch", "2000", "-metrics-out", path).CombinedOutput()
	if err != nil {
		t.Fatalf("dicesim: %v\n%s", err, out)
	}
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
		if l.Key != "dice|gcc" || l.Snap.Epoch != uint64(n) || l.Snap.Cycles != 2000 || len(l.Snap.CoreIPC) == 0 {
			t.Fatalf("line %d is not epoch %d of dice|gcc: %+v", n, n, l)
		}
	}
	if n == 0 {
		t.Fatal("no epoch lines written")
	}
	if want := fmt.Sprintf("wrote %d epochs (0 dropped)", n); !strings.Contains(string(out), want) {
		t.Fatalf("output does not report %q:\n%s", want, out)
	}
}
