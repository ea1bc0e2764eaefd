// Package graph provides the GAP-suite substrate: CSR graphs, generators
// for twitter-like (RMAT power-law) and web-like (locality-clustered)
// topologies, and real implementations of the three kernels the paper
// evaluates — PageRank (pr), Connected Components (cc) and Betweenness
// Centrality (bc). The kernels run on actual in-memory arrays; every
// element access is recorded as a line-granular memory reference, and the
// final array bytes serve as the data image the DRAM cache compresses.
// This preserves the two properties that make GAP the paper's biggest
// winner: highly irregular high-MPKI access streams, and integer-heavy
// data (indices, labels, counts) that FPC/BDI compress well.
package graph

import "fmt"

// CSR is a graph in compressed-sparse-row form. Edges are stored once,
// symmetrized (undirected), with sorted adjacency lists — sorted
// neighbors give the small deltas BDI exploits, as real CSR builders
// produce.
type CSR struct {
	N      int      // vertices
	RowPtr []uint32 // length N+1
	Col    []uint32 // length = 2*edges (symmetrized)
}

// Degree returns the degree of v.
func (g *CSR) Degree(v int) int { return int(g.RowPtr[v+1] - g.RowPtr[v]) }

// Neighbors returns the adjacency slice of v.
func (g *CSR) Neighbors(v int) []uint32 { return g.Col[g.RowPtr[v]:g.RowPtr[v+1]] }

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// rng is a tiny deterministic generator.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s++
	return splitmix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Probabilities are compared in exact integers. A draw k = next()>>11 is
// uniform on [0, 2^53) and converts to float64 exactly, so the float
// test float64(k)/2^53 < p holds exactly when k < p·2^53. Every p used
// here lies in [0.5, 1), where float64 spacing is 2^-53, so p·2^53 is an
// integer: the uint64 conversions below would not compile otherwise.
const (
	// RMAT's quadrant probabilities (0.57, 0.19, 0.19, 0.05) as
	// cumulative thresholds a, a+b and a+b+c.
	rmatA   = uint64(float64(0.57) * (1 << 53))
	rmatAB  = uint64(float64(0.57+0.19) * (1 << 53))
	rmatABC = uint64(float64(0.57+0.19+0.19) * (1 << 53))
	// webLocal is Web's chance that a link stays within its cluster.
	webLocal = uint64(float64(0.85) * (1 << 53))
)

// geq is 1 if k >= t and 0 otherwise, without a branch; k and t must be
// below 2^63 and t at least 1.
func geq(k, t uint64) int { return int((t - 1 - k) >> 63) }

// buildCSR symmetrizes, deduplicates and sorts an edge list into CSR form
// in O(n+E) time. It is an LSD radix sort on (u, v) of the directed
// edges u→v and v→u of every non-loop input edge: a counting sort by v,
// then a stable counting sort by u. Walking the v buckets in order fills
// each row with its neighbors ascending, so duplicates end up adjacent
// and one pass drops them.
func buildCSR(n int, src, dst []uint32) *CSR {
	// start[x] is where x's bucket begins, by v and by u alike: the
	// edge list is symmetric, so x has as many edges out as in.
	start := make([]uint32, n+1)
	for i, u := range src {
		if v := dst[i]; u != v {
			start[u+1]++
			start[v+1]++
		}
	}
	for x := 0; x < n; x++ {
		start[x+1] += start[x]
	}
	// By v: byV holds the sources of the edges into each vertex.
	byV := make([]uint32, start[n])
	next := make([]uint32, n)
	copy(next, start)
	for i, u := range src {
		if v := dst[i]; u != v {
			byV[next[v]] = u
			next[v]++
			byV[next[u]] = v
			next[u]++
		}
	}
	// Stably by u: row u receives its neighbors v in ascending order.
	col := make([]uint32, start[n])
	copy(next, start)
	for v := 0; v < n; v++ {
		for _, u := range byV[start[v]:start[v+1]] {
			col[next[u]] = uint32(v)
			next[u]++
		}
	}
	// Deduplicate each row in place; k never passes the read position.
	g := &CSR{N: n, RowPtr: make([]uint32, n+1)}
	k := uint32(0)
	for u := 0; u < n; u++ {
		for p := start[u]; p < start[u+1]; p++ {
			if v := col[p]; p == start[u] || v != col[k-1] {
				col[k] = v
				k++
			}
		}
		g.RowPtr[u+1] = k
	}
	g.Col = make([]uint32, k)
	copy(g.Col, col)
	return g
}

// RMAT generates a power-law graph in the Graph500/RMAT style used for
// the twitter input: 2^scale vertices, edgeFactor edges per vertex, with
// the standard (0.57, 0.19, 0.19, 0.05) quadrant probabilities producing
// the heavy-tailed degree distribution of social graphs.
func RMAT(scale, edgeFactor int, seed uint64) *CSR {
	if scale < 1 || scale > 30 || edgeFactor < 1 {
		panic(fmt.Sprintf("graph: bad RMAT parameters scale=%d ef=%d", scale, edgeFactor))
	}
	n := 1 << scale
	m := n * edgeFactor
	// Permute vertex labels so high-degree vertices are not all at id 0
	// (standard Graph500 practice keeps locality realistic).
	label := make([]uint32, n)
	for x := range label {
		label[x] = uint32(splitmix64(seed^uint64(x)) & uint64(n-1))
	}
	src := make([]uint32, m)
	dst := make([]uint32, m)
	r := &rng{s: seed}
	for i := 0; i < m; i++ {
		// Each bit picks a quadrant: upper-left (neither bit) below a,
		// v's bit below a+b, u's bit below a+b+c, both bits above.
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			k := r.next() >> 11
			ab := geq(k, rmatAB)
			u |= ab << bit
			v |= (geq(k, rmatA) ^ ab ^ geq(k, rmatABC)) << bit
		}
		src[i] = label[u]
		dst[i] = label[v]
	}
	return buildCSR(n, src, dst)
}

// Web generates a web-like graph for the sk-2005-style input: vertices
// form host-sized clusters with dense local links and sparse long-range
// links, yielding the high spatial locality and long chains of web
// crawls.
func Web(n, avgDeg int, seed uint64) *CSR {
	if n < 2 || avgDeg < 1 {
		panic(fmt.Sprintf("graph: bad Web parameters n=%d deg=%d", n, avgDeg))
	}
	m := n * avgDeg / 2
	src := make([]uint32, 0, m)
	dst := make([]uint32, 0, m)
	r := &rng{s: seed}
	const cluster = 256
	for i := 0; i < m; i++ {
		u := r.intn(n)
		var v int
		if r.next()>>11 < webLocal {
			// Local link within the cluster.
			base := u - u%cluster
			v = base + r.intn(cluster)
			if v >= n {
				v = r.intn(n)
			}
		} else {
			v = r.intn(n)
		}
		src = append(src, uint32(u))
		dst = append(dst, uint32(v))
	}
	return buildCSR(n, src, dst)
}
