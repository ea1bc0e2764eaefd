package experiments

import (
	"dice/internal/sim"
	"dice/internal/stats"
	"dice/internal/workloads"
)

// speedup declares one weighted-speedup experiment as data: its
// columns name every design it compares, and that one declaration
// yields both the cells the experiment simulates and its report.
type speedup struct {
	// id and listing are the catalog's ID and one-line listing title;
	// title heads the rendered report.
	id, listing, title string
	// wls are the report's rows, one per workload. A group table sets
	// groups instead: one row per group, each column the geometric
	// mean over the group's workloads.
	wls    []workloads.Workload
	groups []group
	cols   []column
	// total names the one geometric-mean row under the workload rows;
	// "" appends the paper's RATE/MIX/GAP/ALL26 rows (GroupGeoMeans).
	// Group tables have no total row.
	total string
	note  string
}

// column is one report column: the weighted speedup of design over
// the normalization cell over, on each workload.
type column struct {
	name         string
	design, over CellSpec
}

// col is the column name: design's speedup over the uncompressed
// Alloy baseline.
func col(name string, design CellSpec) column { return column{name, design, base} }

// own is the column name: design's speedup over its own uncompressed
// design (CellSpec.Baseline), as Table 8 and the MLP ablation report.
func own(name string, design CellSpec) column { return column{name, design, design.Baseline()} }

// experiment registers the declaration in the catalog.
func (s speedup) experiment() Experiment {
	return Experiment{ID: s.id, Title: s.listing, Cells: s.cells(), Report: s.report}
}

// rowWorkloads lists the workloads the report reads, in row order: the
// declared rows, or every group's workloads in turn.
func (s speedup) rowWorkloads() []workloads.Workload {
	if s.groups == nil {
		return s.wls
	}
	var wls []workloads.Workload
	for _, g := range s.groups {
		wls = append(wls, g.wls...)
	}
	return wls
}

// cells is workload-major: on each workload, every column's over and
// then its design, deduplicated in first-seen order.
func (s speedup) cells() []CellSpec {
	var out []CellSpec
	seen := map[CellSpec]bool{}
	for _, w := range s.rowWorkloads() {
		for _, c := range s.cols {
			for _, d := range []CellSpec{c.over, c.design} {
				d.Workload = w.Name
				if !seen[d] {
					seen[d] = true
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// speedups returns each column's speedup on w.
func (s speedup) speedups(v Results, w workloads.Workload) []float64 {
	vals := make([]float64, len(s.cols))
	for i, c := range s.cols {
		vals[i] = sim.Speedup(v.Get(c.over, w), v.Get(c.design, w))
	}
	return vals
}

// geoMeans returns each column's geometric mean over rows of values.
func geoMeans(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	for i := range out {
		xs := make([]float64, len(rows))
		for j, r := range rows {
			xs[j] = r[i]
		}
		out[i] = stats.GeoMean(xs)
	}
	return out
}

// report renders the declaration from its cells' results.
func (s speedup) report(v Results) *Report {
	rep := &Report{Title: s.title, Notes: []string{s.note}}
	for _, c := range s.cols {
		rep.Columns = append(rep.Columns, c.name)
	}
	if s.groups != nil {
		for _, g := range s.groups {
			var rows [][]float64
			for _, w := range g.wls {
				rows = append(rows, s.speedups(v, w))
			}
			rep.AddRow(g.label, "", geoMeans(rows)...)
		}
		return rep
	}
	var rows [][]float64
	for _, w := range s.wls {
		rows = append(rows, s.speedups(v, w))
		rep.AddRow(w.Name, w.Suite, rows[len(rows)-1]...)
	}
	if s.total == "" {
		rep.GroupGeoMeans()
	} else {
		rep.AddRow(s.total, "", geoMeans(rows)...)
	}
	return rep
}
