package dcache

// Per-line-address compressed-size memoization. Line data is a pure
// function of the address in this simulator, so a size computed once is
// valid for the whole run; the memo's only job is to make the lookup as
// cheap as possible. It is the per-run first level: a miss asks the
// cache's Sizer (in the simulator, the workload artifact's shared size
// table), and its hit/miss counts are part of the run's Stats. The
// previous implementation was a Go map keyed by line address — a hash,
// a bucket probe and a write per repack touch. This one is a two-level
// page table: simulated physical lines are allocated densely from zero
// (first-touch page allocation), so line>>lineShift indexes a small
// slice of 64-cell pages directly.
// Arbitrary sparse addresses (direct API use in tests) fall back to an
// overflow map of single cells.

// sizeCell memoizes one line's sizes, biased by one so the zero value
// means "unset": single holds the line's compressed size + 1, and pair
// (meaningful for even lines only) holds the pair size /2, rounded up,
// + 1.
type sizeCell struct {
	single uint8
	pair   uint8
}

const (
	// memoLineShift: 64 lines (one 4KB page) per memo page.
	memoLineShift = 6
	memoPageLines = 1 << memoLineShift
	// memoMaxDensePages bounds the dense level-one table (256K pages =
	// 16M lines, 2MB of pointers worst case); higher pages overflow to
	// the map.
	memoMaxDensePages = 1 << 18
)

// sizeMemo is the two-level size table. The zero value is ready to use.
type sizeMemo struct {
	pages    []*[memoPageLines]sizeCell
	overflow map[uint64]*sizeCell
}

// cell returns the memo cell for a line, materializing its page on first
// touch. The pointer stays valid for the memo's lifetime.
func (m *sizeMemo) cell(line uint64) *sizeCell {
	page := line >> memoLineShift
	if page < memoMaxDensePages {
		for uint64(len(m.pages)) <= page {
			m.pages = append(m.pages, nil)
		}
		p := m.pages[page]
		if p == nil {
			p = new([memoPageLines]sizeCell)
			m.pages[page] = p
		}
		return &p[line&(memoPageLines-1)]
	}
	if m.overflow == nil {
		m.overflow = make(map[uint64]*sizeCell)
	}
	c := m.overflow[line]
	if c == nil {
		c = new(sizeCell)
		m.overflow[line] = c
	}
	return c
}

// reset zeroes every cell and drops the overflow map, keeping the dense
// pages allocated for the memo's next owner.
func (m *sizeMemo) reset() {
	for _, p := range m.pages {
		if p != nil {
			*p = [memoPageLines]sizeCell{}
		}
	}
	m.overflow = nil
}
