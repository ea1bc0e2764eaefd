// Command dicetrace inspects the workload substrate without running the
// timing simulator: it reports a workload's access-pattern statistics
// (spatial adjacency, write fraction, footprint) and its data
// compressibility under FPC+BDI (the per-workload bars of Figure 4),
// or dumps the first N requests of the trace.
//
// Usage:
//
//	dicetrace -workload mcf
//	dicetrace -workload pr_twi -dump 20
package main

import (
	"flag"
	"fmt"
	"os"

	"dice/internal/sim"
	"dice/internal/workloads"
)

// cliFlags holds every dicetrace flag; registerFlags is the one place
// they are declared, shared by main and the flag-docs pin test.
type cliFlags struct {
	workload *string
	samples  *int
	dump     *int
	scale    *uint
}

// registerFlags declares the dicetrace flags on fs.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		workload: fs.String("workload", "gcc", "workload name"),
		samples:  fs.Int("samples", 4000, "lines sampled for compressibility"),
		dump:     fs.Int("dump", 0, "dump the first N trace requests"),
		scale:    fs.Uint("scale", 10, "system scale shift, at most 18 (0 = 10, i.e. 1/1024 of 1GB)"),
	}
}

// validateFlags rejects flag values the flag types allow but the
// sampler or the simulator cannot use: -samples below 1 (0 divided by
// zero computing the sampling stride; a negative count wrapped to a
// huge unsigned one and sampled every line) and a -scale the simulator
// rejects (above 18 the system vanishes; at 64 and above the shift
// wraps).
func validateFlags(o *cliFlags) error {
	if *o.samples < 1 {
		return fmt.Errorf("-samples must be >= 1, got %d", *o.samples)
	}
	if err := (sim.Config{ScaleShift: *o.scale}).Validate(); err != nil {
		return fmt.Errorf("-scale: %v", err)
	}
	return nil
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := validateFlags(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var (
		workload = o.workload
		samples  = o.samples
		dump     = o.dump
		scale    = sim.Config{ScaleShift: *o.scale}.EffectiveScale()
	)

	w, err := workloads.ByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	insts := w.Build(scale)
	in := insts[0]

	fmt.Printf("workload %s (%s), per-core footprint %d lines (%.1f MB at scale 1/%d)\n",
		w.Name, w.Suite, in.FootprintLines,
		float64(in.FootprintLines*64)/(1<<20), 1<<scale)
	fmt.Printf("L3 MPKI (Table 3): %.1f\n", in.MPKI)

	if *dump > 0 {
		for i := 0; i < *dump; i++ {
			r := in.Gen.Next()
			op := "R"
			if r.Write {
				op = "W"
			}
			fmt.Printf("  %s line %d (page %d)\n", op, r.Line, r.Line>>6)
		}
		return
	}

	// Access-pattern statistics over a window.
	const window = 50000
	var writes, adjacent int
	var prev uint64
	for i := 0; i < window; i++ {
		r := in.Gen.Next()
		if r.Write {
			writes++
		}
		if i > 0 && r.Line == prev+1 {
			adjacent++
		}
		prev = r.Line
	}
	fmt.Printf("write fraction: %.3f; next-line adjacency: %.3f\n",
		float64(writes)/window, float64(adjacent)/window)

	// Compressibility (Figure 4 bars).
	c := in.Compressibility(*samples)
	fmt.Printf("compressibility over %d sampled lines (Fig 4):\n", c.Lines)
	fmt.Printf("  single <= 32B: %5.1f%%\n", 100*float64(c.Le32)/float64(c.Lines))
	fmt.Printf("  single <= 36B: %5.1f%%\n", 100*float64(c.Le36)/float64(c.Lines))
	fmt.Printf("  double <= 68B: %5.1f%%\n", 100*float64(c.Pair68)/float64(c.Pairs))
	fmt.Printf("where FPC matters (hybrid vs BDI alone):\n")
	fmt.Printf("  FPC smaller:  %5.1f%%\n", 100*float64(c.FPCSmaller)/float64(c.Lines))
	fmt.Printf("  <= 36B by FPC:%5.1f%%\n", 100*float64(c.FPCCrosses36)/float64(c.Lines))
}
