package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dice/internal/dcache"
	"dice/internal/workloads"
)

// tableCell is one tiny simulation of the kind a sweep runs.
type tableCell struct {
	workload string
	cfg      Config
}

func (c tableCell) String() string {
	return fmt.Sprintf("%s/%v/%q/%d", c.workload, c.cfg.Policy, c.cfg.CompressAlg, c.cfg.RefsPerCore)
}

func (c tableCell) run(t *testing.T) Result {
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

// tableCells runs DICE under each compressor, and the uncompressed
// baseline, on a SPEC workload (a table per core) and a GAP workload
// (one table all cores share).
func tableCells() []tableCell {
	var cells []tableCell
	for _, name := range []string{"gcc", "pr_twi"} {
		for _, alg := range []string{"", "fpc", "bdi"} {
			cells = append(cells, tableCell{name, Config{Policy: dcache.PolicyDICE, CompressAlg: alg, RefsPerCore: 600, ScaleShift: 12}})
		}
		cells = append(cells, tableCell{name, Config{Policy: dcache.PolicyUncompressed, RefsPerCore: 600, ScaleShift: 12}})
	}
	return cells
}

// TestWarmSizeTableMatchesDropped runs each cell on empty size tables,
// right after DropCache, then re-runs the list twice on the tables the
// earlier runs filled. Sizes are a pure function of artifact, line and
// compressor, so every warm result must equal its cold one; a table
// shared across compressors would hand the fpc run hybrid sizes and
// change its result.
func TestWarmSizeTableMatchesDropped(t *testing.T) {
	t.Cleanup(workloads.DropCache)
	cells := tableCells()
	cold := make([]Result, len(cells))
	for i, c := range cells {
		workloads.DropCache()
		cold[i] = c.run(t)
	}
	for pass := 0; pass < 2; pass++ {
		for i, c := range cells {
			if got := c.run(t); !reflect.DeepEqual(got, cold[i]) {
				t.Fatalf("pass %d, %v: warm-table result differs from the cold one:\nwarm %+v\ncold %+v", pass, c, got, cold[i])
			}
		}
	}
}

// TestConcurrentRunsFillOneSizeTable runs every cell serially, drops
// the tables, then has several goroutines run the same cells in the
// same order, so runs of one workload and compressor fill one table at
// the same moment. Every result must equal the cell's serial result.
// Under -race it is the check that the tables are filled with atomics
// only.
func TestConcurrentRunsFillOneSizeTable(t *testing.T) {
	t.Cleanup(workloads.DropCache)
	cells := tableCells()
	serial := make([]Result, len(cells))
	for i, c := range cells {
		serial[i] = c.run(t)
	}
	workloads.DropCache()
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, c := range cells {
				if got := c.run(t); !reflect.DeepEqual(got, serial[i]) {
					t.Errorf("goroutine %d, %v: result differs from the serial run", g, c)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRepeatRunSizesNothingNew is the structural proof that sizes
// belong to the artifact: a run that repeats an identical earlier run
// finds every size in the artifact's table, so it computes none and
// the tables hold no more bytes, while its own per-run size memo still
// counts the same hits and misses.
func TestRepeatRunSizesNothingNew(t *testing.T) {
	t.Cleanup(workloads.DropCache)
	workloads.DropCache()
	c := tableCell{"mix1", Config{Policy: dcache.PolicyDICE, RefsPerCore: 2000}}
	first := c.run(t)
	sized, bytes := workloads.SizeTableStats()
	if sized == 0 || bytes == 0 {
		t.Fatalf("the first run sized %d lines into %d bytes, want both above 0", sized, bytes)
	}
	again := c.run(t)
	if s, b := workloads.SizeTableStats(); s != sized || b != bytes {
		t.Fatalf("the repeated run sized %d new lines and added %d bytes, want 0 and 0", s-sized, b-bytes)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("the repeated run's result differs:\nagain %+v\nfirst %+v", again, first)
	}
	t.Logf("mix1 at %d refs/core: %d sizes in %d table bytes; each run: %d size-memo misses, %d hits",
		c.cfg.RefsPerCore, sized, bytes, first.L4.SizeMemoMisses, first.L4.SizeMemoHits)
}
