package workloads

import (
	"sync"
	"testing"
)

// testScale keeps GAP builds small enough for unit tests while still
// exercising the real graph/kernel path.
const testScale = 12

// withColdCache runs the test against an empty cache and empties it
// again afterwards (the cache is process-global, so tests must not leak
// entries).
func withColdCache(t *testing.T) {
	t.Helper()
	DropCache()
	t.Cleanup(DropCache)
}

// drain pulls n requests from an instance's generator.
func drain(in Instance, n int) []struct {
	line  uint64
	write bool
} {
	out := make([]struct {
		line  uint64
		write bool
	}, n)
	for i := range out {
		r, _ := in.Gen.Next()
		out[i] = struct {
			line  uint64
			write bool
		}{r.Line, r.Write}
	}
	return out
}

// assertSameStreams checks two instance sets produce identical request
// streams and data images — the observable surface a simulation consumes.
func assertSameStreams(t *testing.T, a, b []Instance) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("instance counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].MPKI != b[i].MPKI ||
			a[i].FootprintLines != b[i].FootprintLines {
			t.Fatalf("core %d metadata differs: %+v vs %+v", i, a[i], b[i])
		}
		ra, rb := drain(a[i], 512), drain(b[i], 512)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("core %d request %d differs: %+v vs %+v", i, j, ra[j], rb[j])
			}
		}
		for _, line := range []uint64{0, 1, 63, a[i].FootprintLines - 1} {
			da, db := a[i].Data(line), b[i].Data(line)
			if string(da) != string(db) {
				t.Fatalf("core %d line %d data differs", i, line)
			}
		}
	}
}

// TestCachedBuildMatchesCold: a Build served from the artifact cache is
// observably identical to a cold build, for both a GAP workload (shared
// graph artifacts) and a synthetic SPEC workload. A cold build is a
// cache miss; DropCache forces a second, independent one.
func TestCachedBuildMatchesCold(t *testing.T) {
	withColdCache(t)
	for _, name := range []string{"cc_twi", "gcc"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cold := w.Build(testScale)  // miss: builds the entry
		warmA := w.Build(testScale) // hit: shares it
		warmB := w.Build(testScale) // hit
		DropCache()
		cold2 := w.Build(testScale) // miss: an independent cold build
		assertSameStreams(t, cold, warmA)
		assertSameStreams(t, cold2, warmB)
	}
}

// TestCacheCounters: misses count cold builds, hits count served Builds,
// distinct scales are distinct entries, and DropCache zeroes both and
// makes the next Build cold again.
func TestCacheCounters(t *testing.T) {
	withColdCache(t)
	w, err := ByName("cc_twi")
	if err != nil {
		t.Fatal(err)
	}
	w.Build(testScale)
	w.Build(testScale)
	w.Build(testScale + 1)
	if h, m := CacheStats(); h != 1 || m != 2 {
		t.Fatalf("hits, misses = %d, %d; want 1, 2", h, m)
	}
	w.Warm(testScale)
	if h, m := CacheStats(); h != 2 || m != 2 {
		t.Fatalf("warm of a built entry should hit: hits, misses = %d, %d", h, m)
	}
	DropCache()
	if h, m := CacheStats(); h != 0 || m != 0 {
		t.Fatalf("DropCache left counters at hits, misses = %d, %d", h, m)
	}
	w.Build(testScale)
	if h, m := CacheStats(); h != 0 || m != 1 {
		t.Fatalf("Build after DropCache should miss: hits, misses = %d, %d", h, m)
	}
}

// TestCacheSingleflight: concurrent Builds of one cold key perform
// exactly one construction; everyone else blocks and shares it. Run
// with -race this is also the cache's data-race check.
func TestCacheSingleflight(t *testing.T) {
	withColdCache(t)
	w, err := ByName("pr_twi")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	results := make([][]Instance, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = w.Build(testScale)
		}(g)
	}
	wg.Wait()
	if _, m := CacheStats(); m != 1 {
		t.Fatalf("%d concurrent Builds performed %d constructions, want 1", goroutines, m)
	}
	// Drain each result exactly once (draining advances the generators,
	// so one snapshot per instantiation) and compare against the first.
	snap := func(ins []Instance) [][]struct {
		line  uint64
		write bool
	} {
		out := make([][]struct {
			line  uint64
			write bool
		}, len(ins))
		for i := range ins {
			out[i] = drain(ins[i], 512)
		}
		return out
	}
	ref := snap(results[0])
	for g := 1; g < goroutines; g++ {
		got := snap(results[g])
		for i := range ref {
			for j := range ref[i] {
				if ref[i][j] != got[i][j] {
					t.Fatalf("goroutine %d core %d request %d differs: %+v vs %+v",
						g, i, j, ref[i][j], got[i][j])
				}
			}
		}
	}
}

// TestInstantiateIndependentState: instances handed out by one cached
// entry must not share generator positions — advancing one stream must
// not perturb a sibling.
func TestInstantiateIndependentState(t *testing.T) {
	withColdCache(t)
	w, err := ByName("cc_twi")
	if err != nil {
		t.Fatal(err)
	}
	a := w.Build(testScale)
	b := w.Build(testScale)
	// Advance a's first core far ahead, then check b still replays from
	// the start, identical to a third fresh instantiation.
	for i := 0; i < 10_000; i++ {
		if _, ok := a[0].Gen.Next(); !ok {
			a[0].Gen.Reset()
		}
	}
	c := w.Build(testScale)
	rb, rc := drain(b[0], 256), drain(c[0], 256)
	for j := range rb {
		if rb[j] != rc[j] {
			t.Fatalf("sibling instantiation was perturbed at request %d", j)
		}
	}
}

// BenchmarkBuildCold measures the full artifact construction of one GAP
// workload — the cost the cache amortizes across an experiment matrix.
func BenchmarkBuildCold(b *testing.B) {
	w, err := ByName("cc_twi")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.buildArtifacts(testScale).Instantiate()
	}
}

// BenchmarkBuildWarm measures Build against a warm cache: the per-run
// instantiation cost every simulation after the first actually pays.
func BenchmarkBuildWarm(b *testing.B) {
	w, err := ByName("cc_twi")
	if err != nil {
		b.Fatal(err)
	}
	w.Warm(testScale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Build(testScale)
	}
}
