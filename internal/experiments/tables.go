package experiments

import (
	"dice/internal/sim"
	"dice/internal/stats"
	"dice/internal/workloads"
)

// groupSets returns the paper's aggregation groups over the evaluation
// set: SPEC RATE, SPEC MIX, GAP, and the combined 26.
func groupSets() []struct {
	Label string
	WLs   []workloads.Workload
} {
	return []struct {
		Label string
		WLs   []workloads.Workload
	}{
		{"SPEC RATE", workloads.Rate16()},
		{"SPEC MIX", workloads.Mixes()},
		{"GAP", workloads.GAP6()},
		{"GMEAN26", workloads.All26()},
	}
}

// Table04Threshold regenerates Table 4: DICE speedup with the BAI
// insertion threshold at 32B, 36B and 40B, by suite group. Paper: 36B is
// best (+19.0% overall); 32B and 40B lose 1-2%.
func table04Cells() []CellSpec {
	return cells(workloads.All26(), base, diceT32, dice, diceT40)
}

// Table04Threshold regenerates Table 4: DICE's sensitivity to the
// BAI-insertion threshold (32/36/40 bytes).
func Table04Threshold(v Results) *Report {
	rep := &Report{ID: "table4", Title: "Sensitivity to DICE insertion threshold",
		Columns: []string{"<=32B", "<=36B", "<=40B"}}
	for _, g := range groupSets() {
		var s32, s36, s40 []float64
		for _, w := range g.WLs {
			s32 = append(s32, v.Speedup(diceT32, w))
			s36 = append(s36, v.Speedup(dice, w))
			s40 = append(s40, v.Speedup(diceT40, w))
		}
		rep.AddRow(g.Label, "", stats.GeoMean(s32), stats.GeoMean(s36), stats.GeoMean(s40))
	}
	rep.Notes = append(rep.Notes,
		"paper Table 4: 36B maximizes performance (+19.0% GMEAN26)")
	return rep
}

// Table05Capacity regenerates Table 5: effective DRAM-cache capacity of
// TSI, BAI and DICE relative to the baseline's occupancy. Paper: TSI
// 1.24x, BAI 1.69x, DICE 1.62x overall; GAP up to 5.57x under BAI.
func table05Cells() []CellSpec {
	return cells(workloads.All26(), base, tsi, bai, dice)
}

// Table05Capacity regenerates Table 5: average effective L4 capacity
// under TSI, BAI and DICE.
func Table05Capacity(v Results) *Report {
	rep := &Report{ID: "table5", Title: "Effective capacity of TSI/BAI/DICE",
		Columns: []string{"TSI", "BAI", "DICE"}}
	for _, g := range groupSets() {
		var ct, cb, cd []float64
		for _, w := range g.WLs {
			b := v.Get(base, w).EffCapacity
			if b == 0 {
				continue
			}
			ct = append(ct, v.Get(tsi, w).EffCapacity/b)
			cb = append(cb, v.Get(bai, w).EffCapacity/b)
			cd = append(cd, v.Get(dice, w).EffCapacity/b)
		}
		rep.AddRow(g.Label, "", stats.GeoMean(ct), stats.GeoMean(cb), stats.GeoMean(cd))
	}
	rep.Notes = append(rep.Notes,
		"paper Table 5: TSI 1.24x, BAI 1.69x, DICE 1.62x (GMEAN26); GAP highest")
	return rep
}

// Table06L3HitRate regenerates Table 6: shared-L3 hit rate without and
// with DICE (whose free adjacent lines are installed in L3). Paper:
// 37.0% -> 43.6% average.
func table06Cells() []CellSpec {
	return cells(workloads.All26(), base, dice)
}

// Table06L3HitRate regenerates Table 6: DICE's effect on the L3 hit
// rate (compression perturbs hot-line residency).
func Table06L3HitRate(v Results) *Report {
	rep := &Report{ID: "table6", Title: "Effect of DICE on L3 hit rate",
		Columns: []string{"BASE", "DICE"}}
	for _, g := range groupSets() {
		var hb, hd []float64
		for _, w := range g.WLs {
			hb = append(hb, v.Get(base, w).L3.HitRate())
			hd = append(hd, v.Get(dice, w).L3.HitRate())
		}
		rep.AddRow(g.Label, "", stats.Mean(hb), stats.Mean(hd))
	}
	rep.Notes = append(rep.Notes,
		"paper Table 6: average L3 hit rate 37.0% baseline vs 43.6% with DICE")
	return rep
}

// Table07Prefetch regenerates Table 7: wider L3 fetch and next-line
// prefetching vs DICE, and DICE combined with next-line prefetch.
// Paper: 128B-PF +1.9%, NL-PF +1.6%, DICE +19.0%, DICE+NL +20.9%.
func table07Cells() []CellSpec {
	return cells(workloads.All26(), base, base128PF, baseNLPF, dice, diceNLPF)
}

// Table07Prefetch regenerates Table 7: DICE against next-line and
// wide-128B prefetching, separately and combined.
func Table07Prefetch(v Results) *Report {
	rep := &Report{ID: "table7", Title: "Comparison of DICE to prefetch",
		Columns: []string{"128B-PF", "Nextline-PF", "DICE", "DICE+NL"}}
	for _, g := range groupSets() {
		var p128, pnl, pd, pdnl []float64
		for _, w := range g.WLs {
			p128 = append(p128, v.Speedup(base128PF, w))
			pnl = append(pnl, v.Speedup(baseNLPF, w))
			pd = append(pd, v.Speedup(dice, w))
			pdnl = append(pdnl, v.Speedup(diceNLPF, w))
		}
		rep.AddRow(g.Label, "", stats.GeoMean(p128), stats.GeoMean(pnl), stats.GeoMean(pd), stats.GeoMean(pdnl))
	}
	rep.Notes = append(rep.Notes,
		"paper Table 7: prefetch alone ~+2%; DICE +19.0%; DICE+NL +20.9%")
	return rep
}

// Table08Sensitivity regenerates Table 8: DICE's speedup over the
// matching uncompressed design as the cache's capacity, bandwidth and
// latency change. Paper: base +19.0%, 2x capacity +13.2%, 2x BW +24.5%,
// half latency +24.4%.
func table08Cells() []CellSpec {
	return cells(workloads.All26(), base, dice, base2Cap, dice2Cap, base2BW, dice2BW, baseHalf, diceHalf)
}

// Table08Sensitivity regenerates Table 8: DICE's speedup holding
// under doubled capacity, doubled bandwidth and halved latency.
func Table08Sensitivity(v Results) *Report {
	rep := &Report{ID: "table8", Title: "DICE sensitivity to cache capacity/BW/latency",
		Columns: []string{"Base(1GB)", "2xCap", "2xBW", "50%Lat"}}
	// Each DICE design is normalized to its own uncompressed design.
	designs := []CellSpec{dice, dice2Cap, dice2BW, diceHalf}
	for _, g := range groupSets() {
		vals := make([]float64, len(designs))
		for i, d := range designs {
			var xs []float64
			for _, w := range g.WLs {
				xs = append(xs, sim.Speedup(v.Get(d.Baseline(), w), v.Get(d, w)))
			}
			vals[i] = stats.GeoMean(xs)
		}
		rep.AddRow(g.Label, "", vals...)
	}
	rep.Notes = append(rep.Notes,
		"paper Table 8: +19.0% / +13.2% / +24.5% / +24.4% (GMEAN26); each column normalized to its own uncompressed design")
	return rep
}
