package dse

import (
	"fmt"

	"dice/internal/experiments"
)

// MaxCells bounds the expanded matrix. A product past this is almost
// always a spec mistake (axes multiply fast), and every cell costs a
// simulation — erroring at expansion keeps the mistake cheap.
const MaxCells = 1 << 20

// Expand crosses every axis into the cell matrix: an odometer over
// axisTable (workload outermost, then the table's canonical order with
// scale turning fastest, independent of spec line order), deduplicated
// by canonical key, then augmented with every distinct baseline cell
// the Pareto normalization needs that the spec did not already
// request. The result's order is deterministic, so two expansions of
// the same spec are identical element-for-element.
func (s *Spec) Expand() ([]experiments.CellSpec, error) {
	if s.Refs <= 0 {
		return nil, fmt.Errorf("dse: spec refs must be positive, got %d", s.Refs)
	}
	var cells []experiments.CellSpec
	seen := map[string]bool{}
	add := func(c experiments.CellSpec) error {
		key := c.Key()
		if seen[key] {
			return nil
		}
		if len(cells) >= MaxCells {
			return fmt.Errorf("dse: sweep expands past %d cells; split the spec", MaxCells)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("dse: cell %s: %w", key, err)
		}
		seen[key] = true
		cells = append(cells, c)
		return nil
	}
	// digit[i] indexes axis i's values; an absent axis has none and
	// leaves its field at the zero value.
	digit := make([]int, len(axisTable))
	for _, w := range s.Workloads {
		for {
			c := experiments.CellSpec{Workload: w, Refs: s.Refs}
			for i, ax := range axisTable {
				if vals := s.axes[ax.key]; len(vals) > 0 {
					if err := ax.set(&c, vals[digit[i]]); err != nil {
						return nil, fmt.Errorf("dse: %s: %w", ax.key, err)
					}
				}
			}
			if err := add(c); err != nil {
				return nil, err
			}
			i := len(digit) - 1
			for ; i >= 0; i-- {
				if digit[i]++; digit[i] < len(s.axes[axisTable[i].key]) {
					break
				}
				digit[i] = 0
			}
			if i < 0 {
				break // every digit wrapped: this workload is done
			}
		}
	}
	// Baseline augmentation: appended after the requested cells, in
	// first-need order, so the requested matrix keeps its positions.
	for _, c := range cells {
		if len(cells) >= MaxCells {
			break
		}
		b := c.Baseline()
		if !seen[b.Key()] {
			if err := add(b); err != nil {
				return nil, err
			}
		}
	}
	return cells, nil
}
