package workloads

import (
	"reflect"
	"testing"

	"dice/internal/compress"
)

func TestCatalogShape(t *testing.T) {
	all := All26()
	if len(all) != 26 {
		t.Fatalf("All26 returned %d workloads", len(all))
	}
	suites := map[Suite]int{}
	for _, w := range all {
		suites[w.Suite]++
		if len(w.Cores) != 8 {
			t.Fatalf("%s has %d cores, want 8", w.Name, len(w.Cores))
		}
	}
	if suites[SuiteRate] != 16 || suites[SuiteMix] != 4 || suites[SuiteGAP] != 6 {
		t.Fatalf("suite counts = %v", suites)
	}
	if len(LowMPKI13()) != 13 {
		t.Fatal("low-MPKI set wrong size")
	}
}

func TestTable3Values(t *testing.T) {
	// Spot-check published MPKI and footprints survive in the catalog.
	checks := map[string]struct {
		mpki      float64
		footprint uint64 // per-core bytes (8-copy value / 8)
	}{
		"mcf":    {53.6, 13200 * mb / 8},
		"libq":   {22.2, 256 * mb / 8},
		"xalanc": {2.2, 1900 * mb / 8},
		"pr_twi": {112.9, 23100 * mb / 8},
	}
	for _, w := range All26() {
		c, ok := checks[w.Name]
		if !ok {
			continue
		}
		if w.Cores[0].MPKI != c.mpki {
			t.Fatalf("%s MPKI = %v, want %v", w.Name, w.Cores[0].MPKI, c.mpki)
		}
		if w.Cores[0].FootprintBytes != c.footprint {
			t.Fatalf("%s footprint = %d, want %d", w.Name, w.Cores[0].FootprintBytes, c.footprint)
		}
	}
}

func TestMixesDrawFromSPEC(t *testing.T) {
	spec := map[string]bool{}
	for _, name := range rateOrder {
		spec[name] = true
	}
	for _, w := range Mixes() {
		seen := map[string]bool{}
		for _, c := range w.Cores {
			if !spec[c.Name] {
				t.Fatalf("%s includes non-SPEC %q", w.Name, c.Name)
			}
			if seen[c.Name] {
				t.Fatalf("%s repeats %q", w.Name, c.Name)
			}
			seen[c.Name] = true
		}
	}
}

func TestBuildSyntheticInstances(t *testing.T) {
	w, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	insts := w.Build(10)
	if len(insts) != 8 {
		t.Fatalf("built %d instances", len(insts))
	}
	for i, in := range insts {
		if in.FootprintLines == 0 {
			t.Fatalf("core %d footprint zero", i)
		}
		for j := 0; j < 100; j++ {
			r := in.Gen.Next()
			if r.Line >= in.FootprintLines {
				t.Fatalf("core %d line %d beyond footprint %d", i, r.Line, in.FootprintLines)
			}
		}
		if in.Fill == nil {
			t.Fatal("instance has no data image")
		}
	}
	// Different cores get different data copies (different seeds).
	a, b := lineOf(insts[0], 5), lineOf(insts[1], 5)
	diff := false
	for i := range a {
		if a[i] != b[i] {
			diff = true
		}
	}
	if !diff {
		t.Log("cores share identical data at line 5 (possible for zero lines)")
	}
}

func TestBuildGAPInstance(t *testing.T) {
	w, err := ByName("cc_twi")
	if err != nil {
		t.Fatal(err)
	}
	insts := w.Build(10)
	if len(insts) != 8 {
		t.Fatalf("built %d instances", len(insts))
	}
	in := insts[0]
	if in.FootprintLines == 0 {
		t.Fatal("GAP footprint zero")
	}
	seen := 0
	for j := 0; j < 1000; j++ {
		r := in.Gen.Next()
		if r.Line <= in.FootprintLines {
			seen++
		}
	}
	if seen != 1000 {
		t.Fatalf("only %d/1000 requests within footprint", seen)
	}
}

// TestGAPTracesNonEmptyAtSmallestScale pins what lets trace.NewReplay
// panic on an empty trace: buildGAP's footprint floor gives every GAP
// kernel requests to record even at the smallest scale the simulator
// accepts (sim.Config.Validate's ScaleShift bound of 18).
func TestGAPTracesNonEmptyAtSmallestScale(t *testing.T) {
	for _, w := range GAP6() {
		if n := len(buildGAP(w.Cores[0], 18).reqs); n == 0 {
			t.Fatalf("%s records an empty trace at scale 18", w.Name)
		}
	}
}

func TestCompressibilityOrdering(t *testing.T) {
	// The catalog must reproduce Figure 4's ordering: gcc/mcf highly
	// compressible, lbm/libq not.
	frac := func(name string) float64 {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in := w.Build(10)[0]
		ok := 0
		const n = 1500
		for line := uint64(0); line < n; line++ {
			if compress.CompressedSize(lineOf(in, line)) <= 36 {
				ok++
			}
		}
		return float64(ok) / n
	}
	gcc, mcf := frac("gcc"), frac("mcf")
	lbm, libq := frac("lbm"), frac("libq")
	if gcc < 0.6 || mcf < 0.6 {
		t.Fatalf("gcc=%.2f mcf=%.2f should be highly compressible", gcc, mcf)
	}
	if lbm > 0.25 || libq > 0.15 {
		t.Fatalf("lbm=%.2f libq=%.2f should be incompressible", lbm, libq)
	}
}

// TestCompressibilityCountsWhereFPCMatters: FPC puts a line under the
// 36B threshold only where it beats BDI, which the GAP graph data does
// and the SPEC value synthesizer does not.
func TestCompressibilityCountsWhereFPCMatters(t *testing.T) {
	for name, fpcMatters := range map[string]bool{"gcc": false, "bc_web": true} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := w.Build(10)[0].Compressibility(4000)
		if c.FPCCrosses36 > c.FPCSmaller || c.FPCSmaller > c.Lines {
			t.Fatalf("%s: %d lines, %d FPC-smaller, %d crossing 36B: crossings must be FPC-smaller lines",
				name, c.Lines, c.FPCSmaller, c.FPCCrosses36)
		}
		if (c.FPCCrosses36 > 0) != fpcMatters {
			t.Fatalf("%s: %d of %d lines under 36B only by FPC, want some: %v", name, c.FPCCrosses36, c.Lines, fpcMatters)
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := ByName("povray"); err != nil {
		t.Fatalf("low-MPKI lookup failed: %v", err)
	}
}

// TestByNameReturnsOwnCopy checks ByName serves every catalog entry as
// All26 and LowMPKI13 build it, and that a caller changing the Cores of
// a returned workload changes no later lookup.
func TestByNameReturnsOwnCopy(t *testing.T) {
	for _, want := range append(All26(), LowMPKI13()...) {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ByName(%q) = %+v, want %+v", want.Name, got, want)
		}
		got.Cores[0].Name, got.Cores[0].MPKI = "clobbered", -1
		again, _ := ByName(want.Name)
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("ByName(%q) after the caller changed its Cores = %+v, want %+v", want.Name, again.Cores[0], want.Cores[0])
		}
	}
}

func TestNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != 26+13 {
		t.Fatalf("Names returned %d entries", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
	}
}

func TestBuildDeterministic(t *testing.T) {
	w, _ := ByName("soplex")
	a := w.Build(10)[0]
	b := w.Build(10)[0]
	for i := 0; i < 500; i++ {
		if a.Gen.Next() != b.Gen.Next() {
			t.Fatalf("request %d differs between builds", i)
		}
	}
}

// lineOf returns the instance's line bytes in a fresh buffer.
func lineOf(in Instance, line uint64) []byte {
	buf := make([]byte, 64)
	in.Fill(line, buf)
	return buf
}
