package workloads

import (
	"fmt"
	"sync"
	"testing"

	"dice/internal/compress"
)

// tableAlgs are the compressors a simulation sizes with: the hybrid
// default (the zero AlgID), FPC alone and BDI alone.
var tableAlgs = []compress.AlgID{compress.AlgNone, compress.AlgFPC, compress.AlgBDI}

// directSize and directPairSize are the reference the table is checked
// against: the compressor over the bytes Fill writes.
func directSize(in *Instance, alg compress.AlgID, line uint64) int {
	return compress.SizeWith(alg, lineOf(*in, line))
}

func directPairSize(in *Instance, alg compress.AlgID, evenLine uint64) int {
	return compress.PairSizeWith(alg, lineOf(*in, evenLine), lineOf(*in, evenLine|1))
}

// tableSample is the lines TestSizeTableMatchesCompressor checks in a
// footprint of fp lines: the first lines, 32 spread across it, the last
// line and the first line past it (inside the last page when fp is not
// a multiple of 64, past every page otherwise).
func tableSample(fp uint64) []uint64 {
	lines := []uint64{0, 1, fp - 1, fp}
	for i := uint64(1); i < 32; i++ {
		lines = append(lines, fp*i/32)
	}
	return lines
}

// TestSizeTableMatchesCompressor checks, for every catalog workload,
// every core and each compressor a simulation sizes with, that the
// artifact's size table answers what the compressor gives over Fill,
// for single lines and for the pair each sampled line belongs to, once
// when the table computes and once when it reads a stored size. The
// sample includes the first and last lines of the footprint and a pair
// whose odd buddy lies past it.
func TestSizeTableMatchesCompressor(t *testing.T) {
	withColdCache(t)
	buddyPast := 0
	for _, name := range Names() {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			sizedBefore, _ := SizeTableStats()
			insts := w.Build(testScale)
			for ci := range insts {
				in := &insts[ci]
				for _, alg := range tableAlgs {
					for _, line := range tableSample(in.FootprintLines) {
						if got, want := in.Size(alg, line), directSize(in, alg, line); got != want {
							t.Fatalf("%s core %d %v pass %d: Size(%d) = %d, compressor %d", name, ci, alg, pass, line, got, want)
						}
						even := line &^ 1
						if got, want := in.PairSize(alg, even), directPairSize(in, alg, even); got != want {
							t.Fatalf("%s core %d %v pass %d: PairSize(%d) = %d, compressor %d", name, ci, alg, pass, even, got, want)
						}
						if pass == 0 && even < in.FootprintLines && even|1 >= in.FootprintLines {
							buddyPast++
						}
					}
				}
			}
			if sized, _ := SizeTableStats(); pass == 1 && sized != sizedBefore {
				t.Fatalf("%s: the second pass sized %d new lines, want 0 (all stored)", name, sized-sizedBefore)
			}
		}
	}
	if buddyPast == 0 {
		t.Fatal("no catalog footprint has an odd line count: the buddy-past-the-footprint pair went unchecked")
	}
}

// TestSizeTableConcurrentFill has goroutines size the same lines of
// one workload at once, each through its own instances, so every
// table word is raced on; every answer must equal the compressor's.
// Run with -race it is the table's data-race check.
func TestSizeTableConcurrentFill(t *testing.T) {
	withColdCache(t)
	for _, name := range []string{"gcc", "pr_twi"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := w.Build(testScale)
		const goroutines = 4
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				insts := w.Build(testScale)
				for line := uint64(0); line < 512; line++ {
					for _, alg := range tableAlgs {
						ci := int(line+uint64(g)) % len(insts)
						in := &insts[ci]
						if got, want := in.Size(alg, line), directSize(&ref[ci], alg, line); got != want {
							errs <- fmt.Errorf("%s goroutine %d core %d %v: Size(%d) = %d, compressor %d", name, g, ci, alg, line, got, want)
							return
						}
						if got, want := in.PairSize(alg, line&^1), directPairSize(&ref[ci], alg, line&^1); got != want {
							errs <- fmt.Errorf("%s goroutine %d core %d %v: PairSize(%d) = %d, compressor %d", name, g, ci, alg, line&^1, got, want)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestSizeTableMemory checks the tables hold no bytes after Build,
// then the slot array, one directory and one 2 B/line page once a
// page's lines are sized, and that DropCache zeroes the counters with
// the tables it drops.
func TestSizeTableMemory(t *testing.T) {
	withColdCache(t)
	w, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	insts := w.Build(testScale)
	if sized, bytes := SizeTableStats(); sized != 0 || bytes != 0 {
		t.Fatalf("after Build: sized, bytes = %d, %d; want 0, 0", sized, bytes)
	}
	in := &insts[0]
	for line := uint64(0); line < sizePageLines; line++ {
		in.Size(compress.AlgNone, line)
	}
	in.PairSize(compress.AlgNone, 0)
	pages := (in.FootprintLines + sizePageLines - 1) / sizePageLines
	sized, bytes := SizeTableStats()
	if want := uint64(sizePageLines + 1); sized != want {
		t.Fatalf("sized = %d, want %d (one per line plus one pair)", sized, want)
	}
	if want := 32 + pages*8 + 2*sizePageLines; bytes != want {
		t.Fatalf("bytes = %d, want %d (the slot array, a directory of %d pages and one 2 B/line page)", bytes, want, pages)
	}
	DropCache()
	if sized, bytes := SizeTableStats(); sized != 0 || bytes != 0 {
		t.Fatalf("after DropCache: sized, bytes = %d, %d; want 0, 0", sized, bytes)
	}
}
