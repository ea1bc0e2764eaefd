package graph

import (
	"encoding/binary"
	"fmt"
	"math"

	"dice/internal/trace"
)

// Workspace lays the kernel's arrays out in a synthetic virtual address
// space, records every element access as a line-granular reference, and
// serves line bytes from the live arrays — so the DRAM cache compresses
// the kernel's real data.
//
// Array layout: each array occupies a naturally ordered region starting
// at the next 1MB boundary after its predecessor, mimicking a heap
// allocator placing large slices.
//
// Immutability contract: once Trace has returned, a Workspace is never
// written again — the kernel has finished mutating its arrays, and the
// recorded request slice is fixed. FillLine only reads the backing
// arrays into caller-provided buffers. The workload artifact cache
// relies on this to share one Workspace across any number of concurrent
// simulations.
type Workspace struct {
	regions []region
	reqs    []trace.Request
	maxReqs int
	// filter is a direct-mapped recently-touched-line table standing in
	// for the private cache levels above the traced stream.
	filter []uint64
}

type region struct {
	base  uint64 // byte address
	elemN int
	elemS int
	// bytes reads the backing element i as little-endian bytes into dst.
	bytes func(i int, dst []byte)
}

const regionAlign = 1 << 20

// NewWorkspace creates a tracer that stops recording after maxReqs
// references (the kernel keeps running so final data is consistent).
// The whole budget is allocated up front, so recording never grows the
// trace.
func NewWorkspace(maxReqs int) *Workspace {
	return &Workspace{
		reqs:    make([]trace.Request, 0, maxReqs),
		maxReqs: maxReqs,
		filter:  make([]uint64, 256),
	}
}

// Requests returns the recorded reference stream.
func (w *Workspace) Requests() []trace.Request { return w.reqs }

// Full reports whether the recording budget is exhausted.
func (w *Workspace) Full() bool { return len(w.reqs) >= w.maxReqs }

// nextBase returns the base address for a new region.
func (w *Workspace) nextBase() uint64 {
	if len(w.regions) == 0 {
		return regionAlign
	}
	last := w.regions[len(w.regions)-1]
	end := last.base + uint64(last.elemN*last.elemS)
	return (end + regionAlign) &^ (regionAlign - 1)
}

// Array is a traced handle over a backing slice.
type Array struct {
	w     *Workspace
	base  uint64
	elemS int
}

// touch records a reference to element i. A small recently-touched-line
// filter (modeling the private L1/L2 the trace sits behind) absorbs the
// short-term reuse of sweeping several elements of the same line across
// interleaved arrays, so the stream models L3-level traffic.
func (a Array) touch(i int, write bool) {
	w := a.w
	if len(w.reqs) >= w.maxReqs {
		return
	}
	addr := a.base + uint64(i*a.elemS)
	line := addr >> 6
	slot := line & uint64(len(w.filter)-1)
	if w.filter[slot] == line+1 { // +1 so line 0 is distinguishable
		if write && len(w.reqs) > 0 {
			// Keep write intent visible on the most recent request to
			// this line if it is still the filter resident.
			for j := len(w.reqs) - 1; j >= 0 && j >= len(w.reqs)-8; j-- {
				if w.reqs[j].Line == line {
					w.reqs[j].Write = true
					break
				}
			}
		}
		return
	}
	w.filter[slot] = line + 1
	w.reqs = append(w.reqs, trace.Request{Line: line, Write: write})
}

// AddU32 registers a uint32 slice and returns its traced handle.
func (w *Workspace) AddU32(s []uint32) Array {
	base := w.nextBase()
	w.regions = append(w.regions, region{
		base: base, elemN: len(s), elemS: 4,
		bytes: func(i int, dst []byte) { binary.LittleEndian.PutUint32(dst, s[i]) },
	})
	return Array{w: w, base: base, elemS: 4}
}

// AddU64 registers a uint64 slice.
func (w *Workspace) AddU64(s []uint64) Array {
	base := w.nextBase()
	w.regions = append(w.regions, region{
		base: base, elemN: len(s), elemS: 8,
		bytes: func(i int, dst []byte) { binary.LittleEndian.PutUint64(dst, s[i]) },
	})
	return Array{w: w, base: base, elemS: 8}
}

// AddF64 registers a float64 slice.
func (w *Workspace) AddF64(s []float64) Array {
	base := w.nextBase()
	w.regions = append(w.regions, region{
		base: base, elemN: len(s), elemS: 8,
		bytes: func(i int, dst []byte) {
			binary.LittleEndian.PutUint64(dst, math.Float64bits(s[i]))
		},
	})
	return Array{w: w, base: base, elemS: 8}
}

// FillLine writes the 64 data bytes at the given line address from the
// live arrays into buf; gaps between regions read as zero. buf is
// cleared first, so callers can reuse one buffer across lines.
func (w *Workspace) FillLine(line uint64, buf []byte) {
	clear(buf)
	addr := line << 6
	for _, r := range w.regions {
		end := r.base + uint64(r.elemN*r.elemS)
		if addr+64 <= r.base || addr >= end {
			continue
		}
		for off := 0; off < 64; off += r.elemS {
			a := addr + uint64(off)
			if a < r.base || a+uint64(r.elemS) > end {
				continue
			}
			i := int((a - r.base) / uint64(r.elemS))
			r.bytes(i, buf[off:])
		}
		return
	}
}

// FootprintBytes returns the total bytes spanned by all regions.
func (w *Workspace) FootprintBytes() uint64 {
	if len(w.regions) == 0 {
		return 0
	}
	last := w.regions[len(w.regions)-1]
	return last.base + uint64(last.elemN*last.elemS)
}

// Kernel identifies a GAP kernel.
type Kernel uint8

// GAP kernels.
const (
	PageRank Kernel = iota
	ConnectedComponents
	BetweennessCentrality
)

// String names the kernel.
func (k Kernel) String() string {
	switch k {
	case PageRank:
		return "pr"
	case ConnectedComponents:
		return "cc"
	case BetweennessCentrality:
		return "bc"
	default:
		return fmt.Sprintf("kernel(%d)", uint8(k))
	}
}

// Trace runs a kernel over g, recording up to maxReqs line references.
// It returns the workspace, whose Requests() is the trace and whose
// Line() serves the kernel's final data image.
func Trace(k Kernel, g *CSR, maxReqs int) *Workspace {
	w := NewWorkspace(maxReqs)
	switch k {
	case PageRank:
		tracePageRank(w, g)
	case ConnectedComponents:
		traceCC(w, g)
	case BetweennessCentrality:
		traceBC(w, g)
	default:
		panic("graph: unknown kernel")
	}
	// A kernel that converged short of the budget keeps only what it
	// recorded.
	if len(w.reqs) < cap(w.reqs) {
		w.reqs = append(make([]trace.Request, 0, len(w.reqs)), w.reqs...)
	}
	return w
}

// tracePageRank runs pull-style PageRank iterations until the trace
// budget fills or scores converge.
func tracePageRank(w *Workspace, g *CSR) {
	n := g.N
	pr := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	for v := range pr {
		pr[v] = 1 / float64(n)
	}
	aRow := w.AddU32(g.RowPtr)
	aCol := w.AddU32(g.Col)
	aPR := w.AddF64(pr)
	aNext := w.AddF64(next)
	aContrib := w.AddF64(contrib)

	const damping = 0.85
	base := (1 - damping) / float64(n)
	for iter := 0; iter < 20 && !w.Full(); iter++ {
		// contrib[v] = pr[v]/deg[v]: sequential sweep.
		for v := 0; v < n; v++ {
			aPR.touch(v, false)
			aRow.touch(v, false)
			d := g.Degree(v)
			if d > 0 {
				contrib[v] = pr[v] / float64(d)
			} else {
				contrib[v] = 0
			}
			aContrib.touch(v, true)
		}
		// Pull phase: irregular gathers of contrib[u].
		var delta float64
		for v := 0; v < n && !w.Full(); v++ {
			aRow.touch(v, false)
			sum := 0.0
			for ei := g.RowPtr[v]; ei < g.RowPtr[v+1]; ei++ {
				aCol.touch(int(ei), false)
				u := g.Col[ei]
				aContrib.touch(int(u), false)
				sum += contrib[u]
			}
			nv := base + damping*sum
			aNext.touch(v, true)
			delta += math.Abs(nv - pr[v])
			next[v] = nv
		}
		copy(pr, next)
		if delta < 1e-7 {
			break
		}
	}
}

// traceCC runs label-propagation connected components (the
// Shiloach-Vishkin style hooking used by GAP's cc) to convergence or
// trace budget.
func traceCC(w *Workspace, g *CSR) {
	n := g.N
	comp := make([]uint32, n)
	for v := range comp {
		comp[v] = uint32(v)
	}
	aRow := w.AddU32(g.RowPtr)
	aCol := w.AddU32(g.Col)
	aComp := w.AddU32(comp)

	for changedAny := true; changedAny && !w.Full(); {
		changedAny = false
		for v := 0; v < n && !w.Full(); v++ {
			aRow.touch(v, false)
			aComp.touch(v, false)
			cv := comp[v]
			for ei := g.RowPtr[v]; ei < g.RowPtr[v+1]; ei++ {
				aCol.touch(int(ei), false)
				u := g.Col[ei]
				aComp.touch(int(u), false)
				if comp[u] < cv {
					cv = comp[u]
				}
			}
			if cv != comp[v] {
				comp[v] = cv
				aComp.touch(v, true)
				changedAny = true
			}
		}
		// Pointer-jumping compression pass.
		for v := 0; v < n && !w.Full(); v++ {
			aComp.touch(v, false)
			for comp[v] != comp[comp[v]] {
				aComp.touch(int(comp[v]), false)
				comp[v] = comp[comp[v]]
				aComp.touch(v, true)
			}
		}
	}
}

// traceBC runs Brandes betweenness centrality from a set of sample
// sources (GAP's bc uses sampled sources on large graphs).
func traceBC(w *Workspace, g *CSR) {
	n := g.N
	dist := make([]uint32, n)
	sigma := make([]uint64, n)
	delta := make([]float64, n)
	bc := make([]float64, n)
	queue := make([]uint32, 0, n)

	aRow := w.AddU32(g.RowPtr)
	aCol := w.AddU32(g.Col)
	aDist := w.AddU32(dist)
	aSigma := w.AddU64(sigma)
	aDelta := w.AddF64(delta)
	aBC := w.AddF64(bc)

	const inf = ^uint32(0)
	r := &rng{s: 12345}
	for src := 0; src < 8 && !w.Full(); src++ {
		s := r.intn(n)
		for v := 0; v < n; v++ {
			dist[v], sigma[v], delta[v] = inf, 0, 0
			aDist.touch(v, true)
		}
		dist[s], sigma[s] = 0, 1
		queue = append(queue[:0], uint32(s))
		// Forward BFS computing shortest-path counts.
		order := make([]uint32, 0, n)
		for qi := 0; qi < len(queue) && !w.Full(); qi++ {
			v := queue[qi]
			order = append(order, v)
			aRow.touch(int(v), false)
			for ei := g.RowPtr[v]; ei < g.RowPtr[v+1]; ei++ {
				aCol.touch(int(ei), false)
				u := g.Col[ei]
				aDist.touch(int(u), false)
				if dist[u] == inf {
					dist[u] = dist[v] + 1
					aDist.touch(int(u), true)
					queue = append(queue, u)
				}
				if dist[u] == dist[v]+1 {
					aSigma.touch(int(u), true)
					aSigma.touch(int(v), false)
					sigma[u] += sigma[v]
				}
			}
		}
		// Backward dependency accumulation.
		for i := len(order) - 1; i >= 0 && !w.Full(); i-- {
			v := order[i]
			aRow.touch(int(v), false)
			for ei := g.RowPtr[v]; ei < g.RowPtr[v+1]; ei++ {
				aCol.touch(int(ei), false)
				u := g.Col[ei]
				aDist.touch(int(u), false)
				if dist[u] == dist[v]+1 && sigma[u] > 0 {
					aSigma.touch(int(u), false)
					aSigma.touch(int(v), false)
					aDelta.touch(int(u), false)
					aDelta.touch(int(v), true)
					delta[v] += float64(sigma[v]) / float64(sigma[u]) * (1 + delta[u])
				}
			}
			if v != uint32(s) {
				aBC.touch(int(v), true)
				bc[v] += delta[v]
			}
		}
	}
}
