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

import (
	"fmt"
	"sort"
)

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

func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// buildCSR symmetrizes, deduplicates and sorts an edge list into CSR form.
func buildCSR(n int, src, dst []uint32) *CSR {
	type edge struct{ u, v uint32 }
	edges := make([]edge, 0, 2*len(src))
	for i := range src {
		u, v := src[i], dst[i]
		if u == v {
			continue
		}
		edges = append(edges, edge{u, v}, edge{v, u})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	// Deduplicate.
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			out = append(out, e)
		}
	}
	g := &CSR{N: n, RowPtr: make([]uint32, n+1), Col: make([]uint32, len(out))}
	for i, e := range out {
		g.Col[i] = e.v
		g.RowPtr[e.u+1]++
	}
	for v := 0; v < n; v++ {
		g.RowPtr[v+1] += g.RowPtr[v]
	}
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
	src := make([]uint32, m)
	dst := make([]uint32, m)
	r := &rng{s: seed}
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < m; i++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.unit()
			switch {
			case p < a:
				// upper-left: neither bit set
			case p < a+b:
				v |= 1 << bit
			case p < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		// Permute vertex labels so high-degree vertices are not all at
		// id 0 (standard Graph500 practice keeps locality realistic).
		src[i] = uint32(splitmix64(seed^uint64(u)) % uint64(n))
		dst[i] = uint32(splitmix64(seed^uint64(v)) % uint64(n))
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
		if r.unit() < 0.85 {
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
