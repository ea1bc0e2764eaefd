package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refBuildCSR, refRMAT and refWeb are the sort-based CSR builder and the
// float-threshold generators the GAP workloads were first built with.
// They are kept here verbatim as the executable specification that the
// linear-time builder and the integer draws must match edge for edge:
// the experiment goldens were produced by this code.

func refUnit(r *rng) float64 { return float64(r.next()>>11) / (1 << 53) }

func refBuildCSR(n int, src, dst []uint32) *CSR {
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

func refRMAT(scale, edgeFactor int, seed uint64) *CSR {
	n := 1 << scale
	m := n * edgeFactor
	src := make([]uint32, m)
	dst := make([]uint32, m)
	r := &rng{s: seed}
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < m; i++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			p := refUnit(r)
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
		src[i] = uint32(splitmix64(seed^uint64(u)) % uint64(n))
		dst[i] = uint32(splitmix64(seed^uint64(v)) % uint64(n))
	}
	return refBuildCSR(n, src, dst)
}

func refWeb(n, avgDeg int, seed uint64) *CSR {
	m := n * avgDeg / 2
	src := make([]uint32, 0, m)
	dst := make([]uint32, 0, m)
	r := &rng{s: seed}
	const cluster = 256
	for i := 0; i < m; i++ {
		u := r.intn(n)
		var v int
		if refUnit(r) < 0.85 {
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
	return refBuildCSR(n, src, dst)
}

// sameCSR reports how got differs from want, or "" if it does not.
func sameCSR(got, want *CSR) string {
	switch {
	case got.N != want.N:
		return fmt.Sprintf("N %d, want %d", got.N, want.N)
	case !slices.Equal(got.RowPtr, want.RowPtr):
		return "RowPtr differs"
	case !slices.Equal(got.Col, want.Col):
		return fmt.Sprintf("Col differs (len %d, want %d)", len(got.Col), len(want.Col))
	}
	return ""
}

// Property: buildCSR equals the sort-based builder on arbitrary edge
// lists. Few vertices and many edges give self-loops, duplicate edges
// in both directions and empty rows; n=1 has nothing but self-loops.
func TestQuickBuildCSRMatchesReference(t *testing.T) {
	f := func(seed uint64, nSel, mSel uint8) bool {
		r := rand.New(rand.NewPCG(seed, 0))
		n := 1 + int(nSel)%40
		m := int(mSel)
		src := make([]uint32, m)
		dst := make([]uint32, m)
		for i := range src {
			src[i] = uint32(r.IntN(n))
			dst[i] = uint32(r.IntN(n))
		}
		if diff := sameCSR(buildCSR(n, src, dst), refBuildCSR(n, src, dst)); diff != "" {
			t.Logf("n=%d m=%d: %s", n, m, diff)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 5} {
		if diff := sameCSR(buildCSR(n, nil, nil), refBuildCSR(n, nil, nil)); diff != "" {
			t.Fatalf("empty edge list, n=%d: %s", n, diff)
		}
	}
}

func TestRMATMatchesReference(t *testing.T) {
	for scale := 1; scale <= 16; scale++ {
		seeds := []uint64{1, uint64(scale) * 0x9E3779B97F4A7C15, 1 << 63}
		if scale > 12 {
			seeds = seeds[:1]
		}
		for _, seed := range seeds {
			for _, ef := range []int{1, 8} {
				if diff := sameCSR(RMAT(scale, ef, seed), refRMAT(scale, ef, seed)); diff != "" {
					t.Fatalf("scale %d ef %d seed %#x: %s", scale, ef, seed, diff)
				}
			}
		}
	}
}

func TestWebMatchesReference(t *testing.T) {
	for _, c := range []struct {
		n, deg int
		seed   uint64
	}{{2, 1, 1}, {300, 3, 2}, {1024, 8, 3}, {5000, 8, 0xD1CE}, {22795, 8, 1 << 40}} {
		if diff := sameCSR(Web(c.n, c.deg, c.seed), refWeb(c.n, c.deg, c.seed)); diff != "" {
			t.Fatalf("n=%d deg=%d seed=%#x: %s", c.n, c.deg, c.seed, diff)
		}
	}
}

// The integer thresholds split draws exactly where the float
// comparison does, including at the boundary draws themselves.
func TestThresholdsMatchFloatComparison(t *testing.T) {
	for _, c := range []struct {
		t uint64
		p float64
	}{{rmatA, 0.57}, {rmatAB, 0.57 + 0.19}, {rmatABC, 0.57 + 0.19 + 0.19}, {webLocal, 0.85}} {
		for _, k := range []uint64{0, c.t - 1, c.t, c.t + 1, 1<<53 - 1} {
			float := float64(k)/(1<<53) < c.p
			if (k < c.t) != float || (geq(k, c.t) == 1) == float {
				t.Fatalf("p=%v k=%d: integer and float comparisons disagree", c.p, k)
			}
		}
	}
}
