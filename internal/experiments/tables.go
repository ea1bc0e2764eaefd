package experiments

import (
	"dice/internal/stats"
	"dice/internal/workloads"
)

// group is one of the paper's aggregation groups over the evaluation
// set.
type group struct {
	label string
	wls   []workloads.Workload
}

// groupSets returns the paper's aggregation groups: SPEC RATE, SPEC
// MIX, GAP, and the combined 26.
func groupSets() []group {
	return []group{
		{"SPEC RATE", workloads.Rate16()},
		{"SPEC MIX", workloads.Mixes()},
		{"GAP", workloads.GAP6()},
		{"GMEAN26", workloads.All26()},
	}
}

// Table 4: DICE with the BAI insertion threshold at 32B, 36B and 40B,
// by suite group. Paper: 36B is best (+19.0% overall); 32B and 40B lose
// 1-2%.
var table04 = speedup{id: "table4", listing: "Sensitivity to DICE threshold (Table 4)",
	title: "Sensitivity to DICE insertion threshold", groups: groupSets(),
	cols: []column{col("<=32B", diceT32), col("<=36B", dice), col("<=40B", diceT40)},
	note: "paper Table 4: 36B maximizes performance (+19.0% GMEAN26)"}

// Table05Capacity regenerates Table 5: average effective L4 capacity
// under TSI, BAI and DICE.
func Table05Capacity(v Results) *Report {
	rep := &Report{Title: "Effective capacity of TSI/BAI/DICE",
		Columns: []string{"TSI", "BAI", "DICE"}}
	for _, g := range groupSets() {
		var ct, cb, cd []float64
		for _, w := range g.wls {
			b := v.Get(base, w).EffCapacity
			if b == 0 {
				continue
			}
			ct = append(ct, v.Get(tsi, w).EffCapacity/b)
			cb = append(cb, v.Get(bai, w).EffCapacity/b)
			cd = append(cd, v.Get(dice, w).EffCapacity/b)
		}
		rep.AddRow(g.label, "", stats.GeoMean(ct), stats.GeoMean(cb), stats.GeoMean(cd))
	}
	rep.Notes = append(rep.Notes,
		"paper Table 5: TSI 1.24x, BAI 1.69x, DICE 1.62x (GMEAN26); GAP highest")
	return rep
}

// Table06L3HitRate regenerates Table 6: DICE's effect on the L3 hit
// rate (compression perturbs hot-line residency).
func Table06L3HitRate(v Results) *Report {
	rep := &Report{Title: "Effect of DICE on L3 hit rate",
		Columns: []string{"BASE", "DICE"}}
	for _, g := range groupSets() {
		var hb, hd []float64
		for _, w := range g.wls {
			hb = append(hb, v.Get(base, w).L3.HitRate())
			hd = append(hd, v.Get(dice, w).L3.HitRate())
		}
		rep.AddRow(g.label, "", stats.Mean(hb), stats.Mean(hd))
	}
	rep.Notes = append(rep.Notes,
		"paper Table 6: average L3 hit rate 37.0% baseline vs 43.6% with DICE")
	return rep
}

// Table 7: wider L3 fetch and next-line prefetching vs DICE, and DICE
// combined with next-line prefetch. Paper: 128B-PF +1.9%, NL-PF +1.6%,
// DICE +19.0%, DICE+NL +20.9%.
var table07 = speedup{id: "table7", listing: "Comparison to prefetch (Table 7)",
	title: "Comparison of DICE to prefetch", groups: groupSets(),
	cols: []column{col("128B-PF", base128PF), col("Nextline-PF", baseNLPF), col("DICE", dice), col("DICE+NL", diceNLPF)},
	note: "paper Table 7: prefetch alone ~+2%; DICE +19.0%; DICE+NL +20.9%"}

// Table 8: DICE's speedup over the matching uncompressed design as the
// cache's capacity, bandwidth and latency change. Paper: base +19.0%,
// 2x capacity +13.2%, 2x BW +24.5%, half latency +24.4%.
var table08 = speedup{id: "table8", listing: "Sensitivity to capacity/BW/latency (Table 8)",
	title: "DICE sensitivity to cache capacity/BW/latency", groups: groupSets(),
	cols: []column{own("Base(1GB)", dice), own("2xCap", dice2Cap), own("2xBW", dice2BW), own("50%Lat", diceHalf)},
	note: "paper Table 8: +19.0% / +13.2% / +24.5% / +24.4% (GMEAN26); each column normalized to its own uncompressed design"}
