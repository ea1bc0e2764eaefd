// Command dicebench regenerates the paper's evaluation: every figure and
// table (Figures 1f, 4, 7, 10-15; Tables 4-8; the CIP accuracy sweep).
// Results print as aligned text tables with the paper's reference numbers
// in the notes, so paper-vs-measured comparison is direct.
//
// Usage:
//
//	dicebench -run all            # everything (several minutes)
//	dicebench -run fig10          # the headline result
//	dicebench -run table4,table8  # a comma-separated subset
//	dicebench -workers 1          # bit-exact serial reference schedule
//	dicebench -list
//
// -refs trades fidelity for speed (default 60000 references per core).
// -workers bounds the concurrent simulations (default: one per CPU);
// results are byte-identical for every worker count because each
// simulation is a deterministic function of (config, workload).
// Workload build products (graphs, kernel traces) are built once and
// shared across the matrix.
//
// -fault-ber/-fault-seed/-fault-policy inject deterministic bit errors
// into every simulation (the fault-sweep experiment sweeps its own BER
// points regardless). Ctrl-C or SIGTERM (via the shared
// internal/sigctx helper) cancels queued simulations and prints the
// reports finished so far as a partial run; a second signal kills the
// process immediately.
//
// Observability (see METRICS.md): -metrics-out collects an epoch-metrics
// time series from every simulation executed (-metrics-epoch sets the
// sampling period) and writes them all to one file, keyed by
// "<config>|<workload>"; -cpuprofile/-memprofile write pprof profiles of
// the benchmark process; -selfstats prints the simulator's own
// allocation cost normalized per million simulated ticks. None of these
// change simulation results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dice/internal/experiments"
	"dice/internal/obs"
	"dice/internal/parallel"
	"dice/internal/sigctx"
	"dice/internal/sim"
)

// cliFlags holds every dicebench flag; registerFlags is the one place
// they are declared, shared by main and the flag-docs pin test.
type cliFlags struct {
	run      *string
	refs     *int
	scale    *uint
	workers  *int
	faultBER *float64
	faultSd  *uint64
	faultPol *string
	list     *bool
	verbose  *bool

	metricsOut   *string
	metricsEpoch *uint64
	cpuProfile   *string
	memProfile   *string
	selfStats    *bool
}

// registerFlags declares the dicebench flags on fs.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		run:      fs.String("run", "all", "experiment ids, comma separated, or 'all'"),
		refs:     fs.Int("refs", 60_000, "measured references per core"),
		scale:    fs.Uint("scale", 0, "system scale shift (0 = 10)"),
		workers:  fs.Int("workers", 0, "concurrent simulations (0 = one per CPU, 1 = serial)"),
		faultBER: fs.Float64("fault-ber", 0, "raw bit-error rate injected into every simulation (0 = off)"),
		faultSd:  fs.Uint64("fault-seed", 0, "seed for the deterministic fault stream"),
		faultPol: fs.String("fault-policy", "", "ECC/recovery policy: none|ecc|ecc+quarantine (default)"),
		list:     fs.Bool("list", false, "list experiments and exit"),
		verbose:  fs.Bool("v", false, "print each simulation as it completes"),

		metricsOut:   fs.String("metrics-out", "", "write per-simulation epoch metrics to this file (.csv = CSV, else JSON)"),
		metricsEpoch: fs.Uint64("metrics-epoch", 100_000, "epoch length in simulated cycles for -metrics-out"),
		cpuProfile:   fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		memProfile:   fs.String("memprofile", "", "write a pprof heap profile to this file on exit"),
		selfStats:    fs.Bool("selfstats", false, "print the simulator's own allocation/GC cost"),
	}
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	var (
		run      = o.run
		refs     = o.refs
		scale    = o.scale
		workers  = o.workers
		faultBER = o.faultBER
		faultSd  = o.faultSd
		faultPol = o.faultPol
		list     = o.list
		verbose  = o.verbose

		metricsOut   = o.metricsOut
		metricsEpoch = o.metricsEpoch
		cpuProfile   = o.cpuProfile
		memProfile   = o.memProfile
		selfStats    = o.selfStats
	)

	if err := validateFlags(*metricsEpoch, *workers); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		stopProf, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stopProf()
	}
	if *memProfile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	// Reject bad fault flags before any simulation starts; the same
	// validation inside sim.Run would otherwise surface as a worker
	// panic mid-run.
	if err := (sim.Config{FaultBER: *faultBER, FaultPolicy: *faultPol}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	if *run == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	r := experiments.NewRunner(*refs)
	r.Scale = *scale
	r.Verbose = *verbose
	r.Workers = *workers
	r.FaultBER = *faultBER
	r.FaultSeed = *faultSd
	r.FaultPolicy = *faultPol
	if *metricsOut != "" {
		r.MetricsEpoch = *metricsEpoch
	}

	// First SIGINT/SIGTERM cancels queued simulations (in-flight ones
	// finish and the completed reports still print); the shared helper
	// drops the handler once cancelled, so a second signal terminates
	// the process the default way.
	ctx, stop := sigctx.WithShutdown(context.Background())
	defer stop()

	// RunAllCtx submits every experiment's simulation matrix to the
	// worker pool up front, then assembles the reports in the order
	// selected.
	start := time.Now()
	selfBefore := obs.CaptureSelf()
	reports, err := experiments.RunAllCtx(ctx, r, selected)
	for _, rep := range reports {
		fmt.Print(rep.String())
		fmt.Println()
	}
	fmt.Printf("(%d experiments, %d simulations, %d workers, %.1fs)\n",
		len(reports), r.Sims(), parallel.Workers(r.Workers), time.Since(start).Seconds())
	if *selfStats {
		fmt.Println(obs.SelfReport(selfBefore, obs.CaptureSelf(), r.TotalCycles()))
	}
	if *metricsOut != "" {
		if werr := writeRunnerMetrics(r, *metricsOut); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Printf("wrote epoch metrics for %d simulations to %s\n", len(r.Metrics()), *metricsOut)
	}
	if err != nil {
		fmt.Printf("partial run: interrupted with %d of %d experiments assembled\n",
			len(reports), len(selected))
		os.Exit(1)
	}
}

// validateFlags rejects flag values whose types permit nonsense the
// downstream code would only catch as a panic mid-run: a zero metrics
// epoch (the recorder needs a positive sampling period — previously
// `-metrics-epoch 0` with -metrics-out panicked inside the runner), a
// negative worker count (0 is documented as "one per CPU"; a negative
// value was silently treated the same, hiding the typo).
func validateFlags(metricsEpoch uint64, workers int) error {
	if metricsEpoch == 0 {
		return fmt.Errorf("-metrics-epoch must be a positive cycle count, got 0")
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = one per CPU, 1 = serial), got %d", workers)
	}
	return nil
}

// writeRunnerMetrics exports every recorded epoch series, as CSV when
// the file extension is .csv and JSON otherwise.
func writeRunnerMetrics(r *experiments.Runner, path string) error {
	format := "json"
	if filepath.Ext(path) == ".csv" {
		format = "csv"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.WriteMetrics(f, format)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
