// Command dicesim runs one workload on one DRAM-cache configuration and
// prints the measured statistics: per-core IPC, cache hit rates, DRAM
// traffic, effective capacity, predictor accuracies, and energy. The
// flags fill one experiments.CellSpec (zero values mean the simulator
// defaults, as in the catalog), which runs through the experiment
// runner like every other cell. With -baseline the runner also runs the
// cell's CellSpec.Baseline — the uncompressed Alloy design with fault
// injection off — and dicesim reports the weighted speedup against it.
//
// Usage:
//
//	dicesim -workload gcc -policy dice
//	dicesim -workload pr_twi -policy bai -refs 100000 -baseline
//	dicesim -workload gcc -metrics-out run.ndjson -metrics-epoch 100000
//	dicesim -workload gcc -trace-events cip,fault
//	dicesim -list
//
// Observability (see METRICS.md): -metrics-out samples epoch metrics
// into a file of JSON lines, one {"key", "snap"} object per epoch keyed
// by the cell's CellSpec.Key();
// -trace-events prints each component event (comma-separated components
// from cip, fault, dcache, dram, sim, or "all") as one line the moment
// the simulation emits it, ahead of the results, and then their count;
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
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dice/internal/experiments"
	"dice/internal/obs"
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
		org:       fs.String("org", "", "tag organization: alloy|knl (empty = alloy)"),
		threshold: fs.Int("threshold", 0, "DICE BAI-insertion threshold in bytes (0 = 36)"),
		refs:      fs.Int("refs", 0, "measured references per core (0 = auto)"),
		scale:     fs.Uint("scale", 0, "system scale shift (0 = 10, i.e. 1/1024 of 1GB)"),
		capMult:   fs.Int("cap", 0, "L4 capacity multiplier (0 = 1)"),
		bwMult:    fs.Int("bw", 0, "L4 bandwidth (channel) multiplier (0 = 1)"),
		halfLat:   fs.Bool("halflat", false, "halve L4 DRAM latencies"),
		prefetch:  fs.String("prefetch", "", "L3 prefetch: none|nextline|wide128 (empty = none)"),
		faultBER:  fs.Float64("fault-ber", 0, "raw bit-error rate injected into L4 reads (0 = off)"),
		faultSeed: fs.Uint64("fault-seed", 0, "seed for the deterministic fault stream"),
		faultPol:  fs.String("fault-policy", "", "ECC/recovery policy: none|ecc|ecc+quarantine (empty = ecc+quarantine)"),
		baseline:  fs.Bool("baseline", false, "also run the cell's fault-free uncompressed Alloy baseline and report speedup"),
		workers:   fs.Int("workers", 0, "concurrent simulations with -baseline (0 = one per CPU, 1 = serial)"),
		list:      fs.Bool("list", false, "list workloads and exit"),

		metricsOut:   fs.String("metrics-out", "", "write epoch metrics to this file as JSON lines"),
		metricsEpoch: fs.Uint64("metrics-epoch", 100_000, "epoch length in simulated cycles for -metrics-out"),
		traceEvents:  fs.String("trace-events", "", "print component events: comma-separated from cip,fault,dcache,dram,sim, or 'all'"),
		cpuProfile:   fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		memProfile:   fs.String("memprofile", "", "write a pprof heap profile to this file on exit"),
	}
}

func main() { os.Exit(run()) }

// run is dicesim's body. It returns the exit code instead of calling
// os.Exit, so its deferred calls (stopping the CPU profile, writing the
// heap profile) run on every exit path, the failing ones included.
func run() int {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	var (
		baseline = o.baseline
		workers  = o.workers
		list     = o.list

		metricsOut   = o.metricsOut
		metricsEpoch = o.metricsEpoch
		traceEvents  = o.traceEvents
		cpuProfile   = o.cpuProfile
		memProfile   = o.memProfile
	)

	if err := validateFlags(*metricsEpoch, *workers); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *cpuProfile != "" {
		stopProf, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
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
		return 0
	}

	cell, err := cellFromFlags(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// Observer for the flagged cell (a -baseline run stays unobserved —
	// its result is only used for the speedup ratio). -metrics-out is
	// created before the simulation starts, so an unwritable path fails
	// at once, and every epoch goes to the file as it is recorded. Every
	// traced event goes to stdout as it is emitted; only the observed
	// cell's goroutine writes, and the runner has joined it before the
	// flush below.
	var ob *obs.Observer
	var epochs *obs.EpochWriter
	var events *bufio.Writer
	traced := 0
	if *metricsOut != "" || *traceEvents != "" {
		ob = &obs.Observer{}
		if *traceEvents != "" {
			events = bufio.NewWriter(os.Stdout)
			tr, err := obs.NewTracer(*traceEvents, func(e obs.Event) {
				fmt.Fprintln(events, e)
				traced++
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			ob.Trace = tr
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			epochs = obs.NewEpochWriter(f)
			key := cell.Key()
			ob.Rec = obs.NewRecorder(*metricsEpoch, func(s obs.Snapshot) { epochs.Emit(key, s) })
		}
	}

	// SIGINT/SIGTERM cancel queued simulations through the shared
	// helper (the same one dicebench and dicebenchd use); whatever
	// finished prints as a partial result. Cancellation granularity is
	// one simulation — an in-flight run completes. A second signal
	// kills the process the default way.
	ctx, stopSignals := sigctx.WithShutdown(context.Background())
	defer stopSignals()

	r := experiments.NewRunner(0)
	r.Workers = *workers
	res, err := simulate(ctx, r, cell, *baseline, ob)
	code := 0
	// Flush on every path, an interrupted run included, so stdout holds
	// every event emitted, ahead of the results.
	if events != nil {
		if err := events.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
		fmt.Printf("traced %d events\n\n", traced)
	}
	got, ok := res[cell.Key()]
	switch {
	case err != nil && ctx.Err() == nil:
		fmt.Fprintln(os.Stderr, err)
		code = 1
	case !ok:
		fmt.Println("interrupted before the simulation completed")
		code = 1
	default:
		printResult(got)
		if *baseline {
			if base, ok := res[cell.Baseline().Key()]; ok {
				fmt.Printf("\nweighted speedup vs uncompressed baseline: %.3f\n",
					sim.Speedup(base, got))
			} else {
				// Partial run: print what completed, then exit nonzero
				// so scripts notice the interruption.
				fmt.Println("\ninterrupted: baseline run skipped, speedup unavailable")
				code = 1
			}
		}
	}
	// Close on every path, an interrupted run included, so the file
	// holds every epoch recorded.
	if epochs != nil {
		if err := epochs.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		} else {
			fmt.Printf("\nwrote %d epochs to %s\n", epochs.Count(), *metricsOut)
		}
	}
	return code
}

// simulate runs cell — and, with baseline, cell.Baseline() — through
// r, observing cell alone with ob. The runner fans the two out, skips
// queued ones on cancellation, and simulates a cell that is its own
// baseline once.
func simulate(ctx context.Context, r *experiments.Runner, cell experiments.CellSpec, baseline bool, ob *obs.Observer) (map[string]sim.Result, error) {
	cells := []experiments.CellSpec{cell}
	if baseline {
		cells = append(cells, cell.Baseline())
	}
	if ob != nil {
		key := cell.Key()
		r.Observe = func(k string) *obs.Observer {
			if k == key {
				return ob
			}
			return nil
		}
	}
	return r.RunCells(ctx, cells, nil)
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

// cellFromFlags fills the cell dicesim simulates from the flags,
// lowercasing the policy, org and prefetch names, and validates it up
// front so flag mistakes fail with one clean line instead of surfacing
// mid-run. A default spelled out (-policy "", -org alloy, -prefetch
// none, -fault-policy ecc+quarantine) keeps the catalog's key, because
// CellSpec.Key spells the cell's normal form.
func cellFromFlags(o *cliFlags) (experiments.CellSpec, error) {
	c := experiments.CellSpec{
		Workload:    *o.workload,
		Policy:      strings.ToLower(*o.policy),
		Org:         strings.ToLower(*o.org),
		Threshold:   *o.threshold,
		BER:         *o.faultBER,
		FaultSeed:   *o.faultSeed,
		FaultPolicy: *o.faultPol,
		Capacity:    *o.capMult,
		BW:          *o.bwMult,
		HalfLat:     *o.halfLat,
		Prefetch:    strings.ToLower(*o.prefetch),
		Refs:        *o.refs,
		Scale:       *o.scale,
	}
	return c, c.Validate()
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
	if r.Config.Prefetch != sim.PrefetchNone {
		p := r.Prefetches
		fmt.Printf("prefetches: triggered=%d issued=%d dropped past-footprint=%d l3-resident=%d throttled=%d\n",
			p.Triggered, p.Issued, p.PastFootprint, p.L3Resident, p.Throttled)
	}
	if r.Config.FaultBER > 0 {
		f := r.Fault
		fmt.Printf("faults injected: frames=%d flipped-bits=%d corrected=%d detected=%d silent=%d\n",
			f.Frames, f.Flipped, f.Corrected,
			f.Detected, f.Silent)
		fmt.Printf("fault effects  : refetches=%d flushed-lines=%d dirty-loss=%d checksum-caught=%d silent-hits=%d quarantined-sets=%d\n",
			r.L4.FaultRefetches, r.L4.FaultFlushedLines, r.L4.FaultDirtyLoss,
			r.L4.FaultChecksumCaught, r.L4.FaultSilentHits, r.QuarantinedSets)
	}
}
