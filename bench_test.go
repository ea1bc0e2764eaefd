// Package-level benchmark harness: one benchmark per table and figure of
// the paper's evaluation (DESIGN.md section 3 maps each to its
// experiment). Each benchmark regenerates its result and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation and prints paper-comparable values
// (e.g. dice_speedup for Fig 10, edp_ratio for Fig 14). Benchmarks share
// one memoized runner: the baseline simulations run once.
//
// BENCH_REFS overrides the per-core reference budget (default 30000 here;
// cmd/dicebench uses 60000 for tighter numbers). BENCH_WORKERS bounds the
// simulations run concurrently by each experiment's prefetch phase
// (default: one per CPU; 1 = serial reference schedule). Reported
// numbers are byte-identical for every worker count.
package main

import (
	"context"
	"os"
	"strconv"
	"sync"
	"testing"

	"dice/internal/compress"
	"dice/internal/experiments"
	"dice/internal/workloads"
)

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

func sharedRunner() *experiments.Runner {
	runnerOnce.Do(func() {
		refs := 30_000
		if s := os.Getenv("BENCH_REFS"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				refs = v
			}
		}
		runner = experiments.NewRunner(refs)
		if s := os.Getenv("BENCH_WORKERS"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				runner.Workers = v
			}
		}
	})
	return runner
}

// runExperiment executes one experiment per benchmark iteration and
// returns the last report (memoization makes extra iterations cheap).
func runExperiment(b *testing.B, id string) *experiments.Report {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var reps []*experiments.Report
	for i := 0; i < b.N; i++ {
		if reps, err = experiments.RunAllCtx(context.Background(), sharedRunner(), []experiments.Experiment{e}, experiments.CellSpec{}); err != nil {
			b.Fatal(err)
		}
	}
	return reps[0]
}

func metricRow(b *testing.B, rep *experiments.Report, row string, cols map[string]string) {
	b.Helper()
	for _, r := range rep.Rows {
		if r.Name != row {
			continue
		}
		for col, metric := range cols {
			b.ReportMetric(r.Get(col), metric)
		}
		return
	}
	b.Fatalf("report %s has no row %q", rep.ID, row)
}

// BenchmarkFig01Potential regenerates Figure 1(f): idealized 2x capacity /
// 2x bandwidth / 2x both speedups.
func BenchmarkFig01Potential(b *testing.B) {
	rep := runExperiment(b, "fig1")
	metricRow(b, rep, "ALL26", map[string]string{
		"2xCap": "cap2x_speedup", "2xBW": "bw2x_speedup", "2xBoth": "both2x_speedup",
	})
}

// BenchmarkFig04Compressibility regenerates Figure 4: compressible-line
// fractions (paper: 52% of pairs fit 68B).
func BenchmarkFig04Compressibility(b *testing.B) {
	rep := runExperiment(b, "fig4")
	metricRow(b, rep, "ALL26", map[string]string{
		"Single<=32": "frac_le32", "Single<=36": "frac_le36", "Double<=68": "frac_pair68",
	})
}

// BenchmarkFig07StaticIndexing regenerates Figure 7: TSI vs BAI static
// compression (paper: TSI +7%, BAI ~0%).
func BenchmarkFig07StaticIndexing(b *testing.B) {
	rep := runExperiment(b, "fig7")
	metricRow(b, rep, "ALL26", map[string]string{
		"TSI": "tsi_speedup", "BAI": "bai_speedup",
	})
}

// BenchmarkFig10DICE regenerates the headline Figure 10 (paper: DICE
// +19.0%, within 3% of the 2x/2x design's +21.9%).
func BenchmarkFig10DICE(b *testing.B) {
	rep := runExperiment(b, "fig10")
	metricRow(b, rep, "ALL26", map[string]string{
		"DICE": "dice_speedup", "2xCap2xBW": "ideal_speedup",
	})
}

// BenchmarkFig11IndexDistribution regenerates Figure 11: the BAI/TSI
// install split under DICE (paper: 50% invariant; rest 48%/52%).
func BenchmarkFig11IndexDistribution(b *testing.B) {
	rep := runExperiment(b, "fig11")
	if len(rep.Rows) == 0 {
		b.Fatal("no rows")
	}
	var inv, bai, tsi float64
	for _, r := range rep.Rows {
		inv += r.Get("Invariant")
		bai += r.Get("BAI")
		tsi += r.Get("TSI")
	}
	n := float64(len(rep.Rows))
	b.ReportMetric(inv/n, "frac_invariant")
	b.ReportMetric(bai/n, "frac_bai")
	b.ReportMetric(tsi/n, "frac_tsi")
}

// BenchmarkFig12KNL regenerates Figure 12: DICE on the KNL organization
// (paper: +17.5% vs +19.0% on Alloy).
func BenchmarkFig12KNL(b *testing.B) {
	rep := runExperiment(b, "fig12")
	metricRow(b, rep, "ALL26", map[string]string{
		"DICE-KNL": "knl_speedup", "DICE-Alloy": "alloy_speedup",
	})
}

// BenchmarkFig13NonIntensive regenerates Figure 13: low-MPKI workloads
// (paper: ~+2%, no degradation).
func BenchmarkFig13NonIntensive(b *testing.B) {
	rep := runExperiment(b, "fig13")
	metricRow(b, rep, "gmean", map[string]string{"DICE": "dice_speedup"})
}

// BenchmarkFig14Energy regenerates Figure 14 (paper: DICE energy -24%,
// EDP -36%).
func BenchmarkFig14Energy(b *testing.B) {
	rep := runExperiment(b, "fig14")
	metricRow(b, rep, "dice", map[string]string{
		"Energy": "energy_ratio", "EDP": "edp_ratio", "Performance": "perf_ratio",
	})
}

// BenchmarkFig15SCC regenerates Figure 15 (paper: SCC -22% vs DICE +19%).
func BenchmarkFig15SCC(b *testing.B) {
	rep := runExperiment(b, "fig15")
	metricRow(b, rep, "ALL26", map[string]string{
		"SCC": "scc_speedup", "DICE": "dice_speedup",
	})
}

// BenchmarkTable04Threshold regenerates Table 4 (paper: 36B best).
func BenchmarkTable04Threshold(b *testing.B) {
	rep := runExperiment(b, "table4")
	metricRow(b, rep, "GMEAN26", map[string]string{
		"<=32B": "t32_speedup", "<=36B": "t36_speedup", "<=40B": "t40_speedup",
	})
}

// BenchmarkTable05Capacity regenerates Table 5 (paper: TSI 1.24x, BAI
// 1.69x, DICE 1.62x).
func BenchmarkTable05Capacity(b *testing.B) {
	rep := runExperiment(b, "table5")
	metricRow(b, rep, "GMEAN26", map[string]string{
		"TSI": "tsi_capacity", "BAI": "bai_capacity", "DICE": "dice_capacity",
	})
}

// BenchmarkTable06L3HitRate regenerates Table 6 (paper: 37.0% -> 43.6%).
func BenchmarkTable06L3HitRate(b *testing.B) {
	rep := runExperiment(b, "table6")
	metricRow(b, rep, "GMEAN26", map[string]string{
		"BASE": "l3_hit_base", "DICE": "l3_hit_dice",
	})
}

// BenchmarkTable07Prefetch regenerates Table 7 (paper: prefetch ~+2%,
// DICE +19.0%, DICE+NL +20.9%).
func BenchmarkTable07Prefetch(b *testing.B) {
	rep := runExperiment(b, "table7")
	metricRow(b, rep, "GMEAN26", map[string]string{
		"128B-PF": "pf128_speedup", "Nextline-PF": "nlpf_speedup",
		"DICE": "dice_speedup", "DICE+NL": "dicenl_speedup",
	})
}

// BenchmarkTable08Sensitivity regenerates Table 8 (paper: +19.0% /
// +13.2% / +24.5% / +24.4%).
func BenchmarkTable08Sensitivity(b *testing.B) {
	rep := runExperiment(b, "table8")
	metricRow(b, rep, "GMEAN26", map[string]string{
		"Base(1GB)": "dice_base", "2xCap": "dice_2cap",
		"2xBW": "dice_2bw", "50%Lat": "dice_halflat",
	})
}

// BenchmarkCIPAccuracy regenerates the Section 5.3 LTT-size sweep
// (paper: 93.2% at 512 entries to 94.1% at 8192).
func BenchmarkCIPAccuracy(b *testing.B) {
	rep := runExperiment(b, "cip")
	metricRow(b, rep, "AVG26", map[string]string{
		"512": "acc_512", "2048": "acc_2048", "8192": "acc_8192",
	})
}

// --- substrate micro-benchmarks (ablation-grade, no simulation) ---

func benchLines() [][]byte {
	w, err := workloads.ByName("soplex")
	if err != nil {
		panic(err)
	}
	in := w.Build(10)[0]
	lines := make([][]byte, 512)
	for i := range lines {
		lines[i] = make([]byte, compress.LineSize)
		in.Fill(uint64(i), lines[i])
	}
	return lines
}

// BenchmarkCompressFPC measures the FPC encoder on realistic line data.
func BenchmarkCompressFPC(b *testing.B) {
	lines := benchLines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress.Compress(compress.AlgFPC, lines[i%len(lines)])
	}
}

// BenchmarkCompressBDI measures the BDI encoder on realistic line data.
func BenchmarkCompressBDI(b *testing.B) {
	lines := benchLines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress.Compress(compress.AlgBDI, lines[i%len(lines)])
	}
}

// BenchmarkCompressHybrid measures the full hybrid selector DICE uses.
func BenchmarkCompressHybrid(b *testing.B) {
	lines := benchLines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress.Compress(compress.AlgNone, lines[i%len(lines)])
	}
}

// BenchmarkCompressPair measures adjacent-pair compression with tag and
// base sharing.
func BenchmarkCompressPair(b *testing.B) {
	lines := benchLines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i * 2) % (len(lines) - 1)
		compress.PairSize(lines[j], lines[j+1])
	}
}
