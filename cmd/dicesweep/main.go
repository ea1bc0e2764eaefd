// Command dicesweep is the design-space-exploration driver: it
// expands a declarative sweep spec (SWEEPS.md) into a deduplicated
// matrix of simulation cells, runs every cell not already
// checkpointed — in-process on a memoizing worker pool, or sharded
// across one or more dicebenchd daemons — and post-processes the
// results into per-workload Pareto frontiers over speedup, energy,
// EDP and fault resilience, exported as CSV and JSON.
//
// Usage:
//
//	dicesweep -spec fig10.sweep                     # run locally, one worker per CPU
//	dicesweep -spec fig10.sweep -workers 1          # serial reference schedule
//	dicesweep -spec fig10.sweep -daemons http://a:8377,http://b:8377
//	dicesweep -spec fig10.sweep -resume             # continue an interrupted sweep
//	dicesweep -spec fig10.sweep -dry-run            # expansion census only
//
// Every completed cell is appended to a crash-safe CRC-32C results
// log (-log, default "<spec>.results") the moment it finishes, so a
// killed sweep resumes with -resume without re-running logged cells;
// without -resume an existing non-empty log is an error, never
// silently overwritten. Frontier exports are byte-identical at every
// -workers setting and whether cells ran locally or on daemons,
// because simulations are pure functions of their cell spec. See
// DESIGN.md §14 for the architecture and failure matrix.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dice/internal/dse"
	"dice/internal/obs"
	"dice/internal/sigctx"
)

// cliFlags holds every dicesweep flag; registerFlags is the one place
// they are declared, shared by main and the flag-docs pin test.
type cliFlags struct {
	spec          *string
	log           *string
	resume        *bool
	workers       *int
	daemons       *string
	batch         *int
	shardDeadline *time.Duration
	metricsEpoch  *uint64
	metricsOut    *string
	out           *string
	dryRun        *bool
	verbose       *bool
}

// registerFlags declares the dicesweep flags on fs.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		spec:          fs.String("spec", "", "sweep spec file (required; see SWEEPS.md)"),
		log:           fs.String("log", "", "results-log path ('' = <spec>.results)"),
		resume:        fs.Bool("resume", false, "continue from an existing results log instead of erroring on it"),
		workers:       fs.Int("workers", 0, "concurrent simulations (0 = one per CPU, 1 = serial)"),
		daemons:       fs.String("daemons", "", "comma-separated dicebenchd base URLs to shard across ('' = run in-process)"),
		batch:         fs.Int("batch", 0, "cells per daemon job (0 = 256)"),
		shardDeadline: fs.Duration("shard-deadline", 0, "per-job deadline daemons enforce (0 = none)"),
		metricsEpoch:  fs.Uint64("metrics-epoch", 100_000, "epoch length in simulated cycles for -metrics-out"),
		metricsOut:    fs.String("metrics-out", "", "append streamed epoch snapshots to this NDJSON file"),
		out:           fs.String("out", "frontier", "frontier export path prefix (writes <out>.csv and <out>.json)"),
		dryRun:        fs.Bool("dry-run", false, "expand the spec, print the cell census, and exit without simulating"),
		verbose:       fs.Bool("v", false, "print progress lines"),
	}
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := validateFlags(opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run owns the sweep lifecycle so every exit path flows through one
// return.
func run(opts *cliFlags) error {
	if *opts.spec == "" {
		return fmt.Errorf("dicesweep: -spec is required")
	}
	spec, err := dse.ParseFile(*opts.spec)
	if err != nil {
		return err
	}
	cells, err := spec.Expand()
	if err != nil {
		return err
	}
	baselines := 0
	for _, c := range cells {
		if c.IsBaseline() {
			baselines++
		}
	}
	fmt.Printf("dicesweep: spec %s expands to %d cells (%d workloads, %d baseline cells)\n",
		*opts.spec, len(cells), len(spec.Workloads), baselines)
	if *opts.dryRun {
		return nil
	}

	logPath := *opts.log
	if logPath == "" {
		logPath = *opts.spec + ".results"
	}
	rlog, replay, err := dse.OpenResultLog(logPath)
	if err != nil {
		return err
	}
	defer rlog.Close()
	if replay.Cells > 0 && !*opts.resume {
		return fmt.Errorf("dicesweep: results log %s already holds %d cells; pass -resume to continue or remove it",
			logPath, replay.Cells)
	}
	if replay.TruncatedBytes > 0 {
		fmt.Printf("dicesweep: dropped %d bytes of torn results-log tail\n", replay.TruncatedBytes)
	}
	if *opts.resume && len(replay.Results) > 0 {
		fmt.Printf("dicesweep: resuming with %d logged cells\n", len(replay.Results))
	}

	runOpts := dse.Options{
		Workers:       *opts.workers,
		Batch:         *opts.batch,
		ShardDeadline: *opts.shardDeadline,
	}
	// Epoch lines arrive from worker goroutines in arrival order. Epoch
	// delivery is best-effort telemetry (see dse.Options.EpochSink): a
	// daemon restart mid-batch may duplicate or drop lines, so the file
	// is a sample stream, not an exact record. A write failure must not
	// abort the sweep; the writer keeps it for Close.
	var metrics *obs.EpochWriter
	if *opts.metricsOut != "" {
		f, err := os.Create(*opts.metricsOut)
		if err != nil {
			return err
		}
		metrics = obs.NewEpochWriter(f)
		defer metrics.Close()
		runOpts.MetricsEpoch = *opts.metricsEpoch
		runOpts.EpochSink = metrics.Emit
	}
	if *opts.daemons != "" {
		for _, d := range strings.Split(*opts.daemons, ",") {
			if d = strings.TrimSpace(d); d != "" {
				runOpts.Daemons = append(runOpts.Daemons, d)
			}
		}
	}
	if *opts.verbose {
		runOpts.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}

	// First SIGINT/SIGTERM cancels queued cells; completed ones are
	// already in the log, so a second invocation with -resume picks up
	// exactly where this one stopped.
	ctx, stop := sigctx.WithShutdown(context.Background())
	defer stop()

	start := time.Now()
	results, runErr := dse.Run(ctx, cells, rlog, replay.Results, runOpts)
	elapsed := time.Since(start)
	ran := len(results) - len(replay.Results)
	fmt.Printf("dicesweep: %d cells done (%d run now, %d replayed) in %.1fs\n",
		len(results), ran, len(replay.Results), elapsed.Seconds())
	if metrics != nil {
		if err := metrics.Close(); err != nil {
			return err
		}
		fmt.Printf("dicesweep: %d epoch snapshots appended to %s\n", metrics.Count(), *opts.metricsOut)
	}
	if runErr != nil {
		return fmt.Errorf("dicesweep: %w", runErr)
	}

	points, err := dse.Frontier(cells, results)
	if err != nil {
		return err
	}
	if err := writeFrontier(*opts.out, points); err != nil {
		return err
	}
	onFrontier := 0
	for _, p := range points {
		if p.Frontier {
			onFrontier++
		}
	}
	fmt.Printf("dicesweep: %d of %d points Pareto-optimal; wrote %s.csv and %s.json\n",
		onFrontier, len(points), *opts.out, *opts.out)
	return nil
}

// validateFlags rejects, at parse time, flag values the flag types
// allow but the sweep cannot use. A negative -workers would otherwise
// silently mean "one per CPU" locally, a negative -batch or
// -shard-deadline would make every sharded job fail the daemon's
// validation, after which the sweep advises a -resume that fails the
// same way, and a zero -metrics-epoch names no epoch length. As in
// dicebench and dicesim, -metrics-out alone turns recording on.
func validateFlags(opts *cliFlags) error {
	switch {
	case *opts.workers < 0:
		return fmt.Errorf("dicesweep: -workers must be >= 0 (0 = one per CPU, 1 = serial), got %d", *opts.workers)
	case *opts.batch < 0:
		return fmt.Errorf("dicesweep: -batch must be >= 0 (0 = %d), got %d", dse.DefaultBatch, *opts.batch)
	case *opts.shardDeadline < 0:
		return fmt.Errorf("dicesweep: -shard-deadline must be >= 0 (0 = none), got %v", *opts.shardDeadline)
	case *opts.metricsEpoch == 0:
		return fmt.Errorf("dicesweep: -metrics-epoch must be a positive cycle count, got 0")
	}
	return nil
}

// writeFrontier exports the points under prefix as CSV and JSON.
func writeFrontier(prefix string, points []dse.Point) error {
	cf, err := os.Create(prefix + ".csv")
	if err != nil {
		return err
	}
	err = dse.WriteCSV(cf, points)
	if cerr := cf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	jf, err := os.Create(prefix + ".json")
	if err != nil {
		return err
	}
	err = dse.WriteJSON(jf, points)
	if cerr := jf.Close(); err == nil {
		err = cerr
	}
	return err
}
