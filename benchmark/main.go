// Command benchmark is the repository benchmark. It drives the two
// end-to-end paths of the DICE reproduction — one simulation (sim.Run)
// and one unit of service (a sweep cell through the job daemon to a
// durable results log) — through their public Go APIs, checks every
// output, and prints one JSON result line. README.md in this directory
// explains the workloads, the metrics and the layer ledger.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload sim-dice --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// once untraced and once under a CPU profile and prints the per-layer
// metrics instead. Host-time metrics are reported at reference-host
// speed (see hostprobe.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run, on every workload.
var e2eMetrics = []metricDef{
	{"sim_refs_per_s", "1/s"},
	{"setup_s", "s"},
	{"rss_peak_mib", "MiB"},
	{"cells_per_hour", "1/h"},
	{"cell_turnaround_p50_ms", "ms"},
	{"cell_turnaround_p99_ms", "ms"},
}

// layerMetrics are printed by every traced run. A metric that does not
// apply to a workload (the daemon timers on a sim workload, the
// simulated counts on sweep-service) reads 0 there.
var layerMetrics = []metricDef{
	{"compress.self_s", "s"},
	{"dcache.size_memo_hit_ratio", "ratio"},
	{"dcache.self_s", "s"},
	{"dcache.reads", "count"},
	{"dcache.probes_per_read", "ratio"},
	{"dcache.hit_rate", "ratio"},
	{"dcache.installs", "count"},
	{"dcache.writeback_accesses", "count"},
	{"dram.self_s", "s"},
	{"dram.hbm_accesses", "count"},
	{"dram.ddr_accesses", "count"},
	{"dram.row_conflicts", "count"},
	{"dram.queue_stall_cycles", "cycles"},
	{"l3.self_s", "s"},
	{"l3.hit_rate", "ratio"},
	{"l3.misses", "count"},
	{"sim.self_s", "s"},
	{"sim.core_events", "count"},
	{"sim.cycles_skipped", "cycles"},
	{"sim.cycles", "cycles"},
	{"workloads.build_s", "s"},
	{"workloads.gen_self_s", "s"},
	{"runtime.self_s", "s"},
	{"runtime.alloc_bytes_per_ref", "B"},
	{"runtime.gc_cycles", "count"},
	{"service.self_s", "s"},
	{"other.self_s", "s"},
	{"serve.admit_p50_ms", "ms"},
	{"serve.admit_p99_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.run_p50_ms", "ms"},
	{"stream.done_lag_p50_ms", "ms"},
	{"resultlog.append_p50_ms", "ms"},
	{"journal.appends_per_sync", "ratio"},
	{"resultlog.appends_per_sync", "ratio"},
	{"serve.jobs_rejected", "count"},
	{"serve.queue_max_depth", "count"},
	{"turnaround.samples", "count"},
	{"turnaround.tail_pct", "%"},
	{"ledger.e2e_host_s", "s"},
	{"ledger.unattributed_s", "s"},
	{"ledger.trace_overhead_frac", "ratio"},
	{"host.speed", "ratio"},
}

// metrics collects a run's measured values by metric name.
type metrics map[string]float64

// options are one run's settings, from the command line.
type options struct {
	seed    int64
	window  time.Duration // how long one measured window lasts
	trace   bool
	workdir string     // scratch space for journals and logs, inside the checkout
	probe   *hostProbe // the host's speed, sampled as the run goes
}

// report is what a workload run hands back: operations attempted and
// failed (with a reason per failure), the metrics, and notes printed
// before the result line.
type report struct {
	attempted int
	failures  []string
	metrics   metrics
	notes     []string
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloadRunners maps each workload name to the function that runs it.
var workloadRunners = map[string]func(options) (*report, error){
	"sim-dice":      func(o options) (*report, error) { return runSim(o, simDiceCells(o.seed)) },
	"sim-base":      func(o options) (*report, error) { return runSim(o, simBaseCells(o.seed)) },
	"sweep-service": runSweep,
}

// watchdog bounds a run: the benchmark must finish well inside the
// three minutes a run is allowed, even if the daemon wedges.
const watchdog = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sim-dice, sim-base or sweep-service")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's journals and logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloadRunners[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: want --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "benchmark: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: *workdir, probe: newHostProbe()}

	var (
		rep *report
		err error
	)
	withRunLabel(func() { rep, err = runner(o) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	defs := e2eMetrics
	if o.trace {
		defs = layerMetrics
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Attempted: rep.attempted, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, ok = 0, false // nothing completed to measure it on
		}
		if !ok && !o.trace {
			fmt.Fprintf(os.Stderr, "benchmark: %s did not measure %s\n", *name, d.name)
			return 1
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}
	out.Failed = len(rep.failures)
	out.Correct = out.Failed == 0
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, d := range defs {
		fmt.Printf("%-28s %16s %s\n", d.name, strconv.FormatFloat(out.Metrics[d.name].Value, 'g', 8, 64), d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadRunners))
	for n := range workloadRunners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measurePeakRSS runs the measured window fn and reports the peak
// resident set during it as rss_peak_mib. Writing 5 to
// /proc/self/clear_refs restarts VmHWM from the current resident set, so
// set-up before the window and the correctness gate after it do not
// count.
func measurePeakRSS(rep *report, fn func()) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		rep.note("cannot reset the peak resident set (%v): rss_peak_mib covers the whole run", err)
	}
	fn()
	if rss, err := peakRSSMiB(); err == nil {
		rep.metrics["rss_peak_mib"] = rss
	} else {
		rep.fail("read peak RSS: %v", err)
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// rankOf returns the nearest rank of the pct-th percentile of n samples.
func rankOf(n, pct int) int {
	return max((n*pct+99)/100, 1)
}

// percentile returns the pct-th percentile of ds by the nearest-rank
// rule, leaving ds as it was.
func percentile(ds []time.Duration, pct int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[rankOf(len(s), pct)-1]
}

// tailRank returns the nearest rank of the tail a latency summary
// reports: p99 once at least ten samples lie beyond it (1000 samples),
// and with fewer the highest rank that still has ten beyond it, but
// never below the median's.
func tailRank(n int) int {
	return max(min(rankOf(n, 99), n-10), rankOf(n, 50))
}

// latencySummary returns the median of ds and its tail (see tailRank),
// both in milliseconds, with the percentile the tail stands for.
func latencySummary(ds []time.Duration) (p50, tail, tailPct float64) {
	if len(ds) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	r := tailRank(len(s))
	return ms(s[rankOf(len(s), 50)-1]), ms(s[r-1]), 100 * float64(r) / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup repeats setup and returns the median duration at
// reference-host speed, less the share the VM lost to steal time, and
// as measured. It runs at least minSetupReps repetitions and keeps
// going, up to maxSetupReps, until minSetupTime has passed, so a
// set-up of microseconds is still a steady median. The probe runs
// setupBursts bursts before the first repetition and after the last,
// and between repetitions at most every probeInterval. Every repetition
// but the last is undone, untimed, before the next one starts; the last
// one's state is what the measured window uses.
func timeSetup(probe *hostProbe, setup func() (undo func() error, err error)) (norm, raw time.Duration, err error) {
	var ds []time.Duration
	start, steal := time.Now(), startSteal()
	for range setupBursts {
		probe.sample()
	}
	for {
		probe.maybeSample()
		t0 := time.Now()
		undo, err := setup()
		if err != nil {
			return 0, 0, err
		}
		ds = append(ds, time.Since(t0))
		if len(ds) >= maxSetupReps || (len(ds) >= minSetupReps && time.Since(start) >= minSetupTime) {
			for range setupBursts {
				probe.sample()
			}
			raw = percentile(ds, 50)
			return time.Duration(float64(raw) * steal.unstolen() * probe.hostSpeed(start, time.Now())), raw, nil
		}
		if err := undo(); err != nil {
			return 0, 0, err
		}
	}
}

const (
	minSetupReps = 5
	maxSetupReps = 20_000
	minSetupTime = time.Second
	setupBursts  = 3
)
