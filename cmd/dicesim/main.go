// Command dicesim runs one workload on one DRAM-cache configuration and
// prints the measured statistics: per-core IPC, cache hit rates, DRAM
// traffic, effective capacity, predictor accuracies, and energy. With
// -baseline it also runs the uncompressed Alloy configuration and reports
// the weighted speedup.
//
// Usage:
//
//	dicesim -workload gcc -policy dice
//	dicesim -workload pr_twi -policy bai -refs 100000 -baseline
//	dicesim -workload gcc -metrics-out run.json -metrics-epoch 100000
//	dicesim -workload gcc -trace-events cip,fault
//	dicesim -list
//
// Observability (see METRICS.md): -metrics-out samples epoch metrics
// into a CSV or JSON time series (format chosen by file extension);
// -trace-events prints a timeline of component events (comma-separated
// components from cip, fault, dcache, dram, sim, or "all");
// -cpuprofile/-memprofile write pprof profiles of the simulator
// itself. None of these change simulation results.
//
// SIGINT and SIGTERM are handled through the shared internal/sigctx
// helper (the same shutdown path dicebench and dicebenchd use):
// queued simulations are skipped, completed ones print as a partial
// result with a nonzero exit, and a second signal kills the process
// immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dice/internal/dcache"
	"dice/internal/obs"
	"dice/internal/parallel"
	"dice/internal/sigctx"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// cliFlags holds every dicesim flag; registerFlags is the one place
// they are declared, shared by main and the flag-docs pin test.
type cliFlags struct {
	workload  *string
	policy    *string
	org       *string
	threshold *int
	refs      *int
	scale     *uint
	capMult   *int
	bwMult    *int
	halfLat   *bool
	prefetch  *string
	faultBER  *float64
	faultSeed *uint64
	faultPol  *string
	baseline  *bool
	workers   *int
	list      *bool

	metricsOut   *string
	metricsEpoch *uint64
	traceEvents  *string
	cpuProfile   *string
	memProfile   *string
}

// registerFlags declares the dicesim flags on fs.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		workload:  fs.String("workload", "gcc", "workload name (see -list)"),
		policy:    fs.String("policy", "dice", "cache policy: base|tsi|nsi|bai|dice|scc"),
		org:       fs.String("org", "alloy", "tag organization: alloy|knl"),
		threshold: fs.Int("threshold", 0, "DICE BAI-insertion threshold in bytes (0 = 36)"),
		refs:      fs.Int("refs", 0, "measured references per core (0 = auto)"),
		scale:     fs.Uint("scale", 0, "system scale shift (0 = 10, i.e. 1/1024 of 1GB)"),
		capMult:   fs.Int("cap", 1, "L4 capacity multiplier"),
		bwMult:    fs.Int("bw", 1, "L4 bandwidth (channel) multiplier"),
		halfLat:   fs.Bool("halflat", false, "halve L4 DRAM latencies"),
		prefetch:  fs.String("prefetch", "none", "L3 prefetch: none|nextline|wide128"),
		faultBER:  fs.Float64("fault-ber", 0, "raw bit-error rate injected into L4 reads (0 = off)"),
		faultSeed: fs.Uint64("fault-seed", 0, "seed for the deterministic fault stream"),
		faultPol:  fs.String("fault-policy", "ecc+quarantine", "ECC/recovery policy: none|ecc|ecc+quarantine"),
		baseline:  fs.Bool("baseline", false, "also run the uncompressed baseline and report speedup"),
		workers:   fs.Int("workers", 0, "concurrent simulations with -baseline (0 = one per CPU, 1 = serial)"),
		list:      fs.Bool("list", false, "list workloads and exit"),

		metricsOut:   fs.String("metrics-out", "", "write epoch metrics to this file (.csv = CSV, else JSON)"),
		metricsEpoch: fs.Uint64("metrics-epoch", 100_000, "epoch length in simulated cycles for -metrics-out"),
		traceEvents:  fs.String("trace-events", "", "print component events: comma-separated from cip,fault,dcache,dram,sim, or 'all'"),
		cpuProfile:   fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		memProfile:   fs.String("memprofile", "", "write a pprof heap profile to this file on exit"),
	}
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	var (
		workload  = o.workload
		policy    = o.policy
		org       = o.org
		threshold = o.threshold
		refs      = o.refs
		scale     = o.scale
		capMult   = o.capMult
		bwMult    = o.bwMult
		halfLat   = o.halfLat
		prefetch  = o.prefetch
		faultBER  = o.faultBER
		faultSeed = o.faultSeed
		faultPol  = o.faultPol
		baseline  = o.baseline
		workers   = o.workers
		list      = o.list

		metricsOut   = o.metricsOut
		metricsEpoch = o.metricsEpoch
		traceEvents  = o.traceEvents
		cpuProfile   = o.cpuProfile
		memProfile   = o.memProfile
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

	if *list {
		fmt.Println("evaluation set (Table 3):")
		for _, w := range workloads.All26() {
			fmt.Printf("  %-10s (%s)\n", w.Name, w.Suite)
		}
		fmt.Println("non-memory-intensive set (Fig 13):")
		for _, w := range workloads.LowMPKI13() {
			fmt.Printf("  %-10s\n", w.Name)
		}
		return
	}

	w, err := workloads.ByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := sim.Config{
		RefsPerCore:  *refs,
		ScaleShift:   *scale,
		CapacityMult: *capMult,
		BWMult:       *bwMult,
		HalfLatency:  *halfLat,
		Threshold:    *threshold,
		FaultBER:     *faultBER,
		FaultSeed:    *faultSeed,
		FaultPolicy:  *faultPol,
	}
	switch strings.ToLower(*policy) {
	case "base":
		cfg.Policy = dcache.PolicyUncompressed
	case "tsi":
		cfg.Policy = dcache.PolicyTSI
	case "nsi":
		cfg.Policy = dcache.PolicyNSI
	case "bai":
		cfg.Policy = dcache.PolicyBAI
	case "dice":
		cfg.Policy = dcache.PolicyDICE
	case "scc":
		cfg.Policy = dcache.PolicySCC
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(1)
	}
	switch strings.ToLower(*org) {
	case "alloy":
		cfg.Org = dcache.OrgAlloy
	case "knl":
		cfg.Org = dcache.OrgKNL
	default:
		fmt.Fprintf(os.Stderr, "unknown org %q\n", *org)
		os.Exit(1)
	}
	switch strings.ToLower(*prefetch) {
	case "none":
	case "nextline":
		cfg.Prefetch = sim.PrefetchNextLine
	case "wide128":
		cfg.Prefetch = sim.PrefetchWide128
	default:
		fmt.Fprintf(os.Stderr, "unknown prefetch %q\n", *prefetch)
		os.Exit(1)
	}

	// Validate up front so flag mistakes fail with one clean line instead
	// of surfacing mid-run (or from a worker goroutine).
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Observer for the main configuration (the baseline fan-out run stays
	// unobserved — its result is only used for the speedup ratio).
	var ob *obs.Observer
	if *metricsOut != "" || *traceEvents != "" {
		ob = &obs.Observer{}
		if *metricsOut != "" {
			ob.Rec = obs.NewRecorder(*metricsEpoch, 0)
		}
		if *traceEvents != "" {
			tr, err := obs.NewTracer(*traceEvents, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			ob.Trace = tr
		}
	}

	// SIGINT/SIGTERM cancel queued simulations through the shared
	// helper (the same one dicebench and dicebenchd use); whatever
	// finished prints as a partial result. Cancellation granularity is
	// one simulation — an in-flight run completes. A second signal
	// kills the process the default way.
	ctx, stopSignals := sigctx.WithShutdown(context.Background())
	defer stopSignals()

	if !*baseline {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted before the simulation started")
			os.Exit(1)
		}
		res, err := sim.RunObserved(cfg, w, ob)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printResult(res)
		finishObserved(ob, *metricsOut)
		return
	}

	// With -baseline the two simulations are independent; fan them out.
	baseCfg := cfg
	baseCfg.Policy = dcache.PolicyUncompressed
	baseCfg.Org = dcache.OrgAlloy
	cfgs := []sim.Config{cfg, baseCfg}
	results := make([]sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	ran := make([]bool, len(cfgs))
	parallel.ForEachCtx(ctx, *workers, len(cfgs), func(i int) {
		var o *obs.Observer
		if i == 0 {
			o = ob
		}
		results[i], errs[i] = sim.RunObserved(cfgs[i], w, o)
		ran[i] = true
	})
	for i, err := range errs {
		if ran[i] && err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if ctx.Err() != nil && (!ran[0] || !ran[1]) {
		// Partial run: print what completed, then exit nonzero so
		// scripts notice the interruption.
		if ran[0] {
			printResult(results[0])
			fmt.Println("\ninterrupted: baseline run skipped, speedup unavailable")
			finishObserved(ob, *metricsOut)
		} else {
			fmt.Println("interrupted before any simulation completed")
		}
		os.Exit(1)
	}
	printResult(results[0])
	fmt.Printf("\nweighted speedup vs uncompressed baseline: %.3f\n",
		sim.Speedup(results[1], results[0]))
	finishObserved(ob, *metricsOut)
}

// validateFlags rejects flag values whose types permit nonsense the
// downstream code would only catch as a panic mid-run: a zero metrics
// epoch (the recorder needs a positive sampling period — previously
// `-metrics-epoch 0` panicked inside obs.NewRecorder), a negative
// worker count (0 is documented as "one per CPU"; a negative value was
// silently treated the same, hiding the typo).
func validateFlags(metricsEpoch uint64, workers int) error {
	if metricsEpoch == 0 {
		return fmt.Errorf("-metrics-epoch must be a positive cycle count, got 0")
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = one per CPU, 1 = serial), got %d", workers)
	}
	return nil
}

// finishObserved prints the collected event timeline and writes the
// epoch-metrics file once results are on screen.
func finishObserved(ob *obs.Observer, metricsOut string) {
	if ob == nil {
		return
	}
	if ob.Trace != nil {
		fmt.Printf("\nevent timeline (%d events, %d dropped):\n",
			len(ob.Trace.Events()), ob.Trace.Dropped())
		if err := ob.Trace.WriteTimeline(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	if ob.Rec != nil && metricsOut != "" {
		if err := writeSeries(metricsOut, ob.Rec.Series()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d epochs (%d dropped) to %s\n",
			len(ob.Rec.Snapshots()), ob.Rec.Dropped(), metricsOut)
	}
}

// writeSeries writes an epoch series to path, as CSV when the file
// extension is .csv and JSON otherwise.
func writeSeries(path string, s obs.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if filepath.Ext(path) == ".csv" {
		err = s.WriteCSV(f)
	} else {
		err = s.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func printResult(r sim.Result) {
	fmt.Printf("workload %s, policy %v, %d sets scale\n",
		r.Workload, r.Config.Policy, 1<<24>>r.Config.ScaleShift)
	fmt.Printf("cycles (measured window): %d\n", r.Cycles)
	fmt.Printf("per-core IPC:")
	for _, ipc := range r.IPC {
		fmt.Printf(" %.3f", ipc)
	}
	fmt.Println()
	fmt.Printf("L3: hits=%d misses=%d hit-rate=%.3f\n", r.L3.Hits, r.L3.Misses, r.L3.HitRate())
	fmt.Printf("L4: reads=%d hit-rate=%.3f probes=%d second-probes=%d installs=%d evictions=%d\n",
		r.L4.Reads, r.L4.HitRate(), r.L4.Probes, r.L4.SecondProbes, r.L4.Installs, r.L4.Evictions)
	fmt.Printf("L4 index installs: invariant=%d bai=%d tsi=%d\n",
		r.L4.InstallInvariant, r.L4.InstallBAI, r.L4.InstallTSI)
	fmt.Printf("effective capacity: %.2fx lines/set\n", r.EffCapacity)
	fmt.Printf("CIP: accuracy=%.3f over %d predictions; MAP-I accuracy=%.3f\n",
		r.CIPAccuracy, r.CIPPredictions, r.MAPIAccuracy)
	if r.L4.WritePredictions > 0 {
		fmt.Printf("write-index predictions: accuracy=%.3f over %d\n",
			r.L4.WriteAccuracy(), r.L4.WritePredictions)
	}
	if r.L4.Installs > 0 {
		fmt.Printf("installed-line sizes (8B buckets 0..64):")
		for _, n := range r.L4.InstallSizeBuckets {
			fmt.Printf(" %.0f%%", 100*float64(n)/float64(r.L4.Installs))
		}
		fmt.Println()
	}
	fmt.Printf("stacked DRAM: reads=%d writes=%d rowhit=%d rowswitch=%d bytes=%d\n",
		r.HBM.Reads, r.HBM.Writes, r.HBM.RowHits, r.HBM.RowConflicts,
		r.HBM.BytesRead+r.HBM.BytesWritten)
	fmt.Printf("main memory : reads=%d writes=%d bytes=%d queue-stall=%d\n",
		r.DDR.Reads, r.DDR.Writes, r.DDR.BytesRead+r.DDR.BytesWritten,
		r.DDR.QueueStallCycles)
	fmt.Printf("energy: total=%.3g power=%.3g EDP=%.3g\n",
		r.Energy.Total(), r.Energy.Power(), r.Energy.EDP())
	if r.Config.FaultBER > 0 {
		f := r.Fault
		fmt.Printf("faults injected: frames=%d flipped-bits=%d corrected=%d detected=%d silent=%d\n",
			f.Frames.Value(), f.Flipped.Value(), f.Corrected.Value(),
			f.Detected.Value(), f.Silent.Value())
		fmt.Printf("fault effects  : refetches=%d flushed-lines=%d dirty-loss=%d checksum-caught=%d silent-hits=%d quarantined-sets=%d\n",
			r.L4.FaultRefetches, r.L4.FaultFlushedLines, r.L4.FaultDirtyLoss,
			r.L4.FaultChecksumCaught, r.L4.FaultSilentHits, r.QuarantinedSets)
	}
}
