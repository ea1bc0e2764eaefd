package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dice/internal/dcache"
	"dice/internal/workloads"
)

// sizeCacheCell is one tiny simulation of the kind a sweep runs.
type sizeCacheCell struct {
	workload string
	cfg      Config
}

func (c sizeCacheCell) String() string {
	return fmt.Sprintf("%s/%v/%q/%d", c.workload, c.cfg.Policy, c.cfg.CompressAlg, c.cfg.RefsPerCore)
}

func (c sizeCacheCell) run(t *testing.T) Result {
	w, err := workloads.ByName(c.workload)
	if err != nil {
		t.Error(err)
		return Result{}
	}
	res, err := Run(c.cfg, w)
	if err != nil {
		t.Errorf("%v: %v", c, err)
	}
	return res
}

// TestWarmSizeCacheMatchesFresh runs DICE under each compressor and one
// uncompressed cell, each from an empty pool, then re-runs the list
// twice, interleaved, on the caches the earlier runs released. Sizes
// are a pure function of algorithm and content, so every warm result
// must equal its fresh one; a pool shared across algorithms would hand
// the fpc run a hybrid-filled cache and change its result.
func TestWarmSizeCacheMatchesFresh(t *testing.T) {
	cells := []sizeCacheCell{
		{"gcc", Config{Policy: dcache.PolicyDICE, RefsPerCore: 600}},
		{"gcc", Config{Policy: dcache.PolicyDICE, CompressAlg: "fpc", RefsPerCore: 600}},
		{"gcc", Config{Policy: dcache.PolicyDICE, CompressAlg: "bdi", RefsPerCore: 600}},
		{"gcc", Config{Policy: dcache.PolicyUncompressed, RefsPerCore: 600}},
	}
	fresh := make([]Result, len(cells))
	for i, c := range cells {
		// A sync.Pool is empty after two collections with no Put between.
		runtime.GC()
		runtime.GC()
		fresh[i] = c.run(t)
	}
	for pass := 0; pass < 2; pass++ {
		for i, c := range cells {
			if got := c.run(t); !reflect.DeepEqual(got, fresh[i]) {
				t.Fatalf("pass %d, %v: warm-cache result differs from the fresh one:\nwarm  %+v\nfresh %+v", pass, c, got, fresh[i])
			}
		}
	}
}

// TestConcurrentRunsShareNoSizeCache runs a mixed list of tiny cells
// from several goroutines at once, each goroutine several times, and
// requires every result to equal the cell's serial result. Under -race
// it also watches the size caches pass between simulations.
func TestConcurrentRunsShareNoSizeCache(t *testing.T) {
	var cells []sizeCacheCell
	policies := []dcache.Policy{dcache.PolicyUncompressed, dcache.PolicyTSI, dcache.PolicyBAI, dcache.PolicyDICE}
	algs := []string{"", "fpc", "bdi"}
	for i, name := range []string{"gcc", "soplex", "libq"} {
		for j, pol := range policies {
			cells = append(cells, sizeCacheCell{name, Config{
				Policy:      pol,
				CompressAlg: algs[(i+j)%len(algs)],
				RefsPerCore: 200 + 37*(i*len(policies)+j),
			}})
		}
	}
	serial := make([]Result, len(cells))
	for i, c := range cells {
		serial[i] = c.run(t)
	}
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range cells {
					i := (k + g) % len(cells) // stagger so goroutines run different cells at once
					if got := cells[i].run(t); !reflect.DeepEqual(got, serial[i]) {
						t.Errorf("goroutine %d round %d, %v: result differs from the serial run", g, r, cells[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
