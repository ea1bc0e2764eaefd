package main

import (
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestLayerTableCoversInternal checks that every package under
// internal/ is charged to a ledger layer (or explicitly to "other"),
// that the table names no package that is gone, and that every layer
// it names has a self-time metric.
func TestLayerTableCoversInternal(t *testing.T) {
	root := filepath.Join("..", "internal")
	pkgs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgs[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no packages under internal/")
	}
	for pkg := range pkgs {
		if _, ok := layerOf[pkg]; !ok {
			t.Errorf("internal/%s has no entry in layerOf", pkg)
		}
	}
	layers := map[string]bool{"runtime": true}
	for _, l := range ledgerLayers {
		layers[l.layer] = true
	}
	for pkg, layer := range layerOf {
		if !pkgs[pkg] {
			t.Errorf("layerOf names internal/%s, which has no Go files", pkg)
		}
		if !layers[layer] {
			t.Errorf("internal/%s is charged to layer %q, which has no self-time metric", pkg, layer)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	for fn, want := range map[string]string{
		"dice/internal/serve/client.(*Client).Submit":    "serve/client",
		"dice/internal/sim.prepare.func1":                "sim",
		"dice/internal/dcache.(*Cache).Read":             "dcache",
		"dice/internal/x.F[go.shape.*dice/internal/y.T]": "x",
		"runtime.mallocgc":                               "",
		"main.run":                                       "",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"dice/internal/dram.(*Memory).Access", "dice/internal/sim.(*machine).step"}, "dram"},
		{[]string{"runtime.memmove", "dice/internal/data.(*Synth).FillLine"}, "runtime"},
		{[]string{"math/bits.Len64", "dice/internal/compress.SizeOnly"}, "compress"},
		{[]string{"syscall.Syscall", "os.(*File).Sync", "dice/internal/commitlog.(*Log).commit"}, "service"},
		{[]string{"net/http.(*conn).serve"}, ""},
	} {
		if got := layerOfStack(tc.stack); got != tc.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestMetricNames checks the metric tables against the contract —
// names of letters, digits, '_', '.' and '-', at most 16 end-to-end and
// 128 per-layer metrics, no name used twice — and against
// BENCHMARK.json, which must list exactly the same metrics and units.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(e2eMetrics) > 16 || len(layerMetrics) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(e2eMetrics), len(layerMetrics))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, e2eMetrics...), layerMetrics...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, l := range ledgerLayers {
		if !seen[l.metric] {
			t.Errorf("layer %s reports %s, which is not a metric", l.layer, l.metric)
		}
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var bench struct {
		EndToEnd []listed `json:"end_to_end"`
		PerLayer []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, defs []metricDef, list []listed) {
		if len(defs) != len(list) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(list))
			return
		}
		for i, d := range defs {
			if list[i].Name != d.name || list[i].Unit != d.unit {
				t.Errorf("%s %d: program reports %s (%s), BENCHMARK.json lists %s (%s)",
					kind, i, d.name, d.unit, list[i].Name, list[i].Unit)
			}
		}
	}
	compare("end_to_end", e2eMetrics, bench.EndToEnd)
	compare("per_layer", layerMetrics, bench.PerLayer)
}

// TestHostSpeed checks hostSpeed's median over an interval and its
// fallback, for an interval holding fewer than three bursts, to the
// three nearest its middle.
func TestHostSpeed(t *testing.T) {
	t0 := time.Now()
	p := &hostProbe{}
	for i, burst := range []time.Duration{1, 2, 2, 4, 4, 4, 8} {
		p.samples = append(p.samples, probeSample{at: t0.Add(time.Duration(i) * time.Second), burst: burst * probeRefBurst})
	}
	for _, tc := range []struct {
		from, to int // seconds after t0
		want     float64
	}{
		{0, 6, 0.25},  // median of all seven bursts: 4 × the reference
		{0, 2, 0.5},   // 1, 2, 2
		{3, 5, 0.25},  // 4, 4, 4
		{6, 6, 0.25},  // too short: the three nearest, 4, 4, 8
		{-9, -8, 0.5}, // before the first burst: 1, 2, 2
		{1, 2, 0.5},   // too short: 2, 2 and one of 1 and 4, equally near
	} {
		got := p.hostSpeed(t0.Add(time.Duration(tc.from)*time.Second), t0.Add(time.Duration(tc.to)*time.Second))
		if got != tc.want {
			t.Errorf("hostSpeed(%d s, %d s) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestTailRank(t *testing.T) {
	for n, want := range map[int]int{1: 1, 8: 4, 20: 10, 40: 30, 200: 190, 1000: 990, 5000: 4950} {
		if got := tailRank(n); got != want {
			t.Errorf("tailRank(%d) = %d, want %d", n, got, want)
		}
	}
}

// simulatedCounts are the per-layer metrics a sim workload derives from
// simulated statistics alone; they must repeat exactly for a seed.
var simulatedCounts = []string{
	"dcache.size_memo_hit_ratio", "dcache.reads", "dcache.probes_per_read", "dcache.hit_rate",
	"dcache.installs", "dcache.writeback_accesses", "dram.hbm_accesses", "dram.ddr_accesses",
	"dram.row_conflicts", "dram.queue_stall_cycles", "l3.hit_rate", "l3.misses",
	"sim.core_events", "sim.cycles_skipped", "sim.cycles",
}

// TestWorkloadsPassGate runs every workload briefly, untraced and then
// traced with the same seed: both runs must pass the correctness gate,
// the untraced one must measure every end-to-end metric, the simulated
// counts must be identical across the two, and the traced run's ledger
// must close.
func TestWorkloadsPassGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var reps [2]*report
			for i, trace := range []bool{false, true} {
				o := options{seed: 7, window: time.Second, trace: trace, workdir: t.TempDir(), probe: newHostProbe()}
				var err error
				withRunLabel(func() { reps[i], err = workloadRunners[name](o) })
				if err != nil {
					t.Fatal(err)
				}
				if len(reps[i].failures) > 0 {
					t.Fatalf("trace=%v: %d failed operations, first: %s", trace, len(reps[i].failures), reps[i].failures[0])
				}
				if reps[i].attempted == 0 {
					t.Fatalf("trace=%v: attempted nothing", trace)
				}
			}
			plain, traced := reps[0].metrics, reps[1].metrics
			for _, d := range e2eMetrics {
				if v := plain[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want a positive measurement", d.name, v)
				}
			}
			for _, m := range simulatedCounts {
				if plain[m] != traced[m] {
					t.Errorf("%s: %v untraced, %v traced; simulated counts must repeat exactly", m, plain[m], traced[m])
				}
			}
			var sum float64
			for _, l := range ledgerLayers {
				sum += traced[l.metric]
			}
			if e2e := traced["ledger.e2e_host_s"]; !(e2e > 0) || math.Abs(sum+traced["ledger.unattributed_s"]-e2e) > 1e-9 {
				t.Errorf("ledger does not close: layers %v + unattributed %v != e2e %v", sum, traced["ledger.unattributed_s"], e2e)
			}
			want := []string{"serve.admit_p50_ms", "resultlog.append_p50_ms", "journal.appends_per_sync", "resultlog.appends_per_sync", "host.speed"}
			if strings.HasPrefix(name, "sim-") {
				want = []string{"dcache.self_s", "dram.self_s", "sim.self_s", "sim.core_events", "dram.hbm_accesses", "host.speed"}
			}
			for _, m := range want {
				if !(traced[m] > 0) {
					t.Errorf("%s = %v on %s, want > 0", m, traced[m], name)
				}
			}
		})
	}
}
