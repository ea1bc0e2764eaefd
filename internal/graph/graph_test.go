package graph

import (
	"testing"
	"testing/quick"

	"dice/internal/compress"
)

func TestCSRWellFormed(t *testing.T) {
	for name, g := range map[string]*CSR{
		"rmat": RMAT(10, 8, 1),
		"web":  Web(1024, 8, 2),
	} {
		t.Run(name, func(t *testing.T) {
			if len(g.RowPtr) != g.N+1 {
				t.Fatalf("RowPtr length %d, want %d", len(g.RowPtr), g.N+1)
			}
			if int(g.RowPtr[g.N]) != len(g.Col) {
				t.Fatal("RowPtr does not terminate at len(Col)")
			}
			for v := 0; v < g.N; v++ {
				if g.RowPtr[v] > g.RowPtr[v+1] {
					t.Fatal("RowPtr not monotone")
				}
				nbrs := g.Neighbors(v)
				for i, u := range nbrs {
					if int(u) >= g.N {
						t.Fatal("neighbor out of range")
					}
					if int(u) == v {
						t.Fatal("self loop survived")
					}
					if i > 0 && nbrs[i-1] >= u {
						t.Fatal("adjacency not sorted/deduped")
					}
				}
			}
		})
	}
}

func TestCSRSymmetric(t *testing.T) {
	g := RMAT(8, 8, 3)
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			found := false
			for _, back := range g.Neighbors(int(u)) {
				if int(back) == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d has no reverse", v, u)
			}
		}
	}
}

func TestRMATPowerLaw(t *testing.T) {
	g := RMAT(12, 8, 7)
	maxDeg, sum := 0, 0
	for v := 0; v < g.N; v++ {
		d := g.Degree(v)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sum) / float64(g.N)
	if float64(maxDeg) < 8*avg {
		t.Fatalf("max degree %d vs avg %.1f: not heavy-tailed", maxDeg, avg)
	}
}

func TestWebLocality(t *testing.T) {
	g := Web(4096, 8, 9)
	local, total := 0, 0
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			total++
			if v/256 == int(u)/256 {
				local++
			}
		}
	}
	if frac := float64(local) / float64(total); frac < 0.6 {
		t.Fatalf("local-edge fraction %.2f, want > 0.6", frac)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := RMAT(8, 4, 5), RMAT(8, 4, 5)
	if len(a.Col) != len(b.Col) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			t.Fatal("nondeterministic adjacency")
		}
	}
}

func TestBadParamsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { RMAT(0, 8, 1) },
		func() { RMAT(31, 8, 1) },
		func() { RMAT(8, 0, 1) },
		func() { Web(1, 8, 1) },
		func() { Web(100, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad parameters accepted")
				}
			}()
			f()
		}()
	}
}

func TestTraceProducesRequests(t *testing.T) {
	g := RMAT(11, 8, 11)
	for _, k := range []Kernel{PageRank, ConnectedComponents, BetweennessCentrality} {
		t.Run(k.String(), func(t *testing.T) {
			w := Trace(k, g, 50000)
			reqs := w.Requests()
			if len(reqs) < 10000 {
				t.Fatalf("only %d requests traced", len(reqs))
			}
			if len(reqs) > 50000 {
				t.Fatalf("trace exceeded budget: %d", len(reqs))
			}
			if cap(reqs) != len(reqs) {
				t.Fatalf("trace of %d requests keeps %d slots", len(reqs), cap(reqs))
			}
			writes := 0
			maxLine := w.FootprintBytes() >> 6
			for _, r := range reqs {
				if r.Line > maxLine {
					t.Fatalf("request line %d beyond footprint", r.Line)
				}
				if r.Write {
					writes++
				}
			}
			if k != ConnectedComponents && writes == 0 {
				t.Fatal("kernel performed no writes")
			}
		})
	}
}

func TestTraceDeterministic(t *testing.T) {
	g := RMAT(8, 8, 13)
	a := Trace(PageRank, g, 20000).Requests()
	b := Trace(PageRank, g, 20000).Requests()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestWorkspaceLineServesArrayBytes(t *testing.T) {
	w := NewWorkspace(10)
	vals := make([]uint32, 64)
	for i := range vals {
		vals[i] = uint32(1000 + i)
	}
	w.AddU32(vals)
	// First region starts at regionAlign; line holding vals[0..15].
	line := uint64(regionAlign) >> 6
	buf := lineOf(w, line)
	for i := 0; i < 16; i++ {
		got := uint32(buf[i*4]) | uint32(buf[i*4+1])<<8 | uint32(buf[i*4+2])<<16 | uint32(buf[i*4+3])<<24
		if got != vals[i] {
			t.Fatalf("element %d = %d, want %d", i, got, vals[i])
		}
	}
	// A gap line reads as zero.
	if b := lineOf(w, 5); len(b) != 64 {
		t.Fatal("gap line must still be 64 bytes")
	}
}

func TestGraphDataIsCompressible(t *testing.T) {
	// CSR indices and labels must compress meaningfully overall — the
	// property that gives GAP its large capacity gains (Table 5).
	g := RMAT(10, 8, 17)
	w := Trace(ConnectedComponents, g, 100000)
	totalSize, lines := 0, 0
	end := w.FootprintBytes() >> 6
	for line := uint64(regionAlign >> 6); line < end; line += 37 {
		totalSize += compress.CompressedSize(lineOf(w, line))
		lines++
	}
	ratio := float64(lines*64) / float64(totalSize)
	if ratio < 1.5 {
		t.Fatalf("graph data compression ratio %.2f, want > 1.5", ratio)
	}
}

func TestKernelStrings(t *testing.T) {
	if PageRank.String() != "pr" || ConnectedComponents.String() != "cc" ||
		BetweennessCentrality.String() != "bc" {
		t.Fatal("kernel names wrong")
	}
	if Kernel(7).String() != "kernel(7)" {
		t.Fatal("unknown kernel name wrong")
	}
}

// Property: Workspace.FillLine is deterministic and always 64 bytes for
// arbitrary addresses.
func TestQuickWorkspaceLine(t *testing.T) {
	g := RMAT(8, 4, 19)
	w := Trace(PageRank, g, 5000)
	f := func(line uint64) bool {
		l := line % (w.FootprintBytes() >> 5) // include out-of-range
		a := lineOf(w, l)
		b := lineOf(w, l)
		if len(a) != 64 || len(b) != 64 {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RMAT(10, 8, uint64(i))
	}
}

func BenchmarkTracePageRank(b *testing.B) {
	g := RMAT(10, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Trace(PageRank, g, 100000)
	}
}

// lineOf returns line's bytes from w in a fresh buffer.
func lineOf(w *Workspace, line uint64) []byte {
	buf := make([]byte, 64)
	w.FillLine(line, buf)
	return buf
}
