package experiments

import (
	"fmt"

	"dice/internal/sim"
	"dice/internal/stats"
	"dice/internal/workloads"
)

// The designs the catalog compares, as cells without a workload. Every
// experiment declares its cells as designs × workloads (see cells and
// speedup) and its report reads them back by design and workload (see
// Results).
var (
	base      = CellSpec{Policy: "base"}
	tsi       = CellSpec{Policy: "tsi"}
	nsi       = CellSpec{Policy: "nsi"}
	bai       = CellSpec{Policy: "bai"}
	dice      = CellSpec{Policy: "dice"}
	scc       = CellSpec{Policy: "scc"}
	diceKNL   = CellSpec{Policy: "dice", Org: "knl"}
	diceT32   = CellSpec{Policy: "dice", Threshold: 32}
	diceT40   = CellSpec{Policy: "dice", Threshold: 40}
	base2Cap  = CellSpec{Policy: "base", Capacity: 2}
	base2BW   = CellSpec{Policy: "base", BW: 2}
	base2Both = CellSpec{Policy: "base", Capacity: 2, BW: 2}
	dice2Cap  = CellSpec{Policy: "dice", Capacity: 2}
	dice2BW   = CellSpec{Policy: "dice", BW: 2}
	diceHalf  = CellSpec{Policy: "dice", HalfLat: true}
	base128PF = CellSpec{Policy: "base", Prefetch: "wide128"}
	baseNLPF  = CellSpec{Policy: "base", Prefetch: "nextline"}
	diceNLPF  = CellSpec{Policy: "dice", Prefetch: "nextline"}
)

// cells declares designs × workloads, workload-major: every design on
// the first workload, then on the next — the serial schedule's order.
func cells(wls []workloads.Workload, designs ...CellSpec) []CellSpec {
	out := make([]CellSpec, 0, len(wls)*len(designs))
	for _, w := range wls {
		for _, d := range designs {
			d.Workload = w.Name
			out = append(out, d)
		}
	}
	return out
}

// named looks up cataloged workloads by name; the names are constants,
// so a miss is a programming error.
func named(names ...string) []workloads.Workload {
	out := make([]workloads.Workload, len(names))
	for i, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = w
	}
	return out
}

// Figure 1(f): the speedup available from an idealized DRAM cache with
// double capacity, double bandwidth, or both — the headroom DICE aims
// at. Paper: ~1.10 / (BW benefit) / ~1.22.
var fig01 = speedup{id: "fig1", listing: "Potential from doubling capacity/bandwidth (Fig 1f)",
	title: "Potential speedup of 2x capacity / 2x BW / 2x both", wls: workloads.All26(),
	cols: []column{col("2xCap", base2Cap), col("2xBW", base2BW), col("2xBoth", base2Both)},
	note: "paper Fig 1(f): 2xCap ~1.10, 2xBoth ~1.22 average over ALL26"}

// Figure 7: the TSI and BAI static-indexing schemes, bracketed by the
// doubled-capacity and doubled-both idealizations. Paper: TSI +7%, BAI
// ~0% (wins on compressible workloads, big losses on lbm/libq), 2xBoth
// +22%.
var fig07 = speedup{id: "fig7", listing: "Static indexing: TSI vs BAI (Fig 7)",
	title: "Speedup of TSI and BAI static indexing", wls: workloads.All26(),
	cols: []column{col("TSI", tsi), col("BAI", bai), col("2xCap", base2Cap), col("2xCap2xBW", base2Both)},
	note: "paper Fig 7: TSI +7% avg; BAI ~baseline avg with per-workload swings"}

// Figure 10, the headline result: DICE's dynamic index selection
// against TSI and BAI, with the doubled-capacity-and-bandwidth ideal as
// the upper bracket. Paper: TSI +7%, BAI +0.1%, DICE +19.0%, 2x/2x
// +21.9%.
var fig10 = speedup{id: "fig10", listing: "DICE speedup (Fig 10)",
	title: "DICE speedup vs static indexing", wls: workloads.All26(),
	cols: []column{col("TSI", tsi), col("BAI", bai), col("DICE", dice), col("2xCap2xBW", base2Both)},
	note: "paper Fig 10: DICE +19.0% avg, within 3% of the 2x/2x design (+21.9%)"}

// Figure 12: DICE on the Knights-Landing-style organization (tags in
// ECC, no neighbor-tag visibility) versus Alloy. Paper: +17.5%, within
// 2% of DICE on Alloy.
var fig12 = speedup{id: "fig12", listing: "DICE on Knights Landing organization (Fig 12)",
	title: "DICE on the KNL DRAM-cache organization", wls: workloads.All26(),
	cols: []column{col("DICE-KNL", diceKNL), col("DICE-Alloy", dice)},
	note: "paper Fig 12: KNL-organization DICE +17.5% vs +19.0% on Alloy"}

// Figure 13: DICE on the 13 low-MPKI SPEC benchmarks, where it must do
// no harm. Paper: no degradation anywhere, ~+2% average.
var fig13 = speedup{id: "fig13", listing: "Non-memory-intensive workloads (Fig 13)",
	title: "DICE on non-memory-intensive workloads", wls: workloads.LowMPKI13(),
	cols: []column{col("DICE", dice)}, total: "gmean",
	note: "paper Fig 13: ~+2% average, no workload degraded"}

// Figure 15: a Skewed Compressed Cache retargeted to the DRAM cache,
// versus DICE. Paper: SCC's serialized tag accesses cost 22% while DICE
// gains 19%.
var fig15 = speedup{id: "fig15", listing: "Skewed Compressed Cache on DRAM (Fig 15)",
	title: "SCC on DRAM cache vs DICE", wls: workloads.All26(),
	cols: []column{col("SCC", scc), col("DICE", dice)},
	note: "paper Fig 15: SCC -22% (4 DRAM accesses per request), DICE +19%"}

// Fig04Compressibility regenerates Figure 4: per workload, the fraction
// of installed lines compressing to <=32B and <=36B, and of adjacent
// pairs to <=68B. No simulation needed — this is a property of the data
// images. Paper: 52% of pairs fit 68B on average.
func Fig04Compressibility(Results) *Report {
	rep := &Report{Title: "Fraction of compressible lines",
		Columns: []string{"Single<=32", "Single<=36", "Double<=68"}}
	const samples = 4000
	for _, w := range workloads.All26() {
		insts := w.Build(10)
		var c workloads.Compressibility
		for ci := 0; ci < len(insts); ci += 4 { // sample a few cores
			s := insts[ci].Compressibility(samples)
			c.Lines, c.Le32, c.Le36 = c.Lines+s.Lines, c.Le32+s.Le32, c.Le36+s.Le36
			c.Pairs, c.Pair68 = c.Pairs+s.Pairs, c.Pair68+s.Pair68
		}
		rep.AddRow(w.Name, w.Suite,
			float64(c.Le32)/float64(c.Lines),
			float64(c.Le36)/float64(c.Lines),
			float64(c.Pair68)/float64(c.Pairs))
	}
	// Figure 4 averages arithmetically across workloads.
	var s32, s36, s68 float64
	for _, row := range rep.Rows {
		s32 += row.Get("Single<=32")
		s36 += row.Get("Single<=36")
		s68 += row.Get("Double<=68")
	}
	n := float64(len(rep.Rows))
	rep.Rows = append(rep.Rows, Row{Name: "ALL26", Values: map[string]float64{
		"Single<=32": s32 / n, "Single<=36": s36 / n, "Double<=68": s68 / n,
	}})
	rep.Notes = append(rep.Notes,
		"paper Fig 4: on average 52% of adjacent pairs compress to <=68B")
	return rep
}

// Fig11IndexDistribution regenerates Figure 11: the fraction of L4
// installs DICE steers to BAI versus TSI indexing per workload.
func Fig11IndexDistribution(v Results) *Report {
	rep := &Report{Title: "Distribution of BAI and TSI indices under DICE",
		Columns: []string{"Invariant", "BAI", "TSI"}}
	for _, w := range workloads.All26() {
		res := v.Get(dice, w)
		total := float64(res.L4.InstallInvariant + res.L4.InstallBAI + res.L4.InstallTSI)
		if total == 0 {
			continue
		}
		rep.AddRow(w.Name, w.Suite,
			float64(res.L4.InstallInvariant)/total,
			float64(res.L4.InstallBAI)/total,
			float64(res.L4.InstallTSI)/total)
	}
	var sb, st float64
	var n float64
	for _, row := range rep.Rows {
		den := row.Get("BAI") + row.Get("TSI")
		if den > 0 {
			sb += row.Get("BAI") / den
			st += row.Get("TSI") / den
			n++
		}
	}
	if n > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"non-invariant split: %.0f%% BAI / %.0f%% TSI (paper: 48%% / 52%%)",
			100*sb/n, 100*st/n))
	}
	return rep
}

// Fig14Energy regenerates Figure 14: memory-system power,
// performance, energy and EDP of TSI/BAI/DICE, normalized to the
// uncompressed baseline.
func Fig14Energy(v Results) *Report {
	rep := &Report{Title: "Power, performance, energy, EDP (normalized)",
		Columns: []string{"Power", "Performance", "Energy", "EDP"}}
	for _, d := range []CellSpec{base, tsi, bai, dice} {
		var pw, pf, en, edp []float64
		for _, w := range workloads.All26() {
			b := v.Get(base, w)
			t := v.Get(d, w)
			pw = append(pw, t.Energy.Power()/b.Energy.Power())
			pf = append(pf, sim.Speedup(b, t))
			en = append(en, t.Energy.Total()/b.Energy.Total())
			edp = append(edp, t.Energy.EDP()/b.Energy.EDP())
		}
		rep.AddRow(d.Policy, "", stats.GeoMean(pw), stats.GeoMean(pf), stats.GeoMean(en), stats.GeoMean(edp))
	}
	rep.Notes = append(rep.Notes,
		"paper Fig 14: DICE reduces energy by 24% and EDP by 36%")
	return rep
}

// cipDesigns is the Last-Time-Table sweep of Section 5.3: DICE with
// 512, 2048 and 8192 entries. 2048 is the simulator default, so that
// point is the plain dice cell other experiments run too.
var cipDesigns = []CellSpec{{Policy: "dice", CIP: 512}, dice, {Policy: "dice", CIP: 8192}}

// CIPAccuracy regenerates the Section 5.3 study: read-index prediction
// accuracy as the Last-Time Table grows from 512 to 8192 entries.
// Paper: 93.2% at 512 entries rising to 94.1% at 8192; writes 95%.
func CIPAccuracy(v Results) *Report {
	rep := &Report{Title: "CIP accuracy vs LTT size",
		Columns: []string{"512", "2048", "8192"}}
	perSize := make([][]float64, len(cipDesigns))
	for _, w := range workloads.All26() {
		vals := make([]float64, len(cipDesigns))
		for i, d := range cipDesigns {
			vals[i] = v.Get(d, w).CIPAccuracy
			perSize[i] = append(perSize[i], vals[i])
		}
		rep.AddRow(w.Name, w.Suite, vals...)
	}
	avg := map[string]float64{}
	for i, col := range rep.Columns {
		avg[col] = stats.Mean(perSize[i])
	}
	rep.Rows = append(rep.Rows, Row{Name: "AVG26", Values: avg})
	rep.Notes = append(rep.Notes,
		"paper Sec 5.3: 93.2% (512 entries) to 94.1% (8192); default 2048 = 93.8%")
	return rep
}
