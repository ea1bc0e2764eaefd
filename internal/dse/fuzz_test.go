package dse

import (
	"strings"
	"testing"
)

// fuzzMaxCells bounds the expansions FuzzParse performs: a spec whose
// axes multiply past it is still parsed (the parser must not panic on
// it) but not expanded. Every cell costs a validation, so a larger
// bound slows each execution, and minimization with it, to a crawl.
const fuzzMaxCells = 64

// FuzzParse feeds arbitrary text to the spec parser. It must never
// panic, and a spec it accepts must expand to the same cells twice or
// return an error both times.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		// SWEEPS.md's worked example and grammar examples.
		"# fig10.sweep — headline comparison, plus fault resilience\nname     = fig10-extended\nrefs     = 60000\nworkload = all26\npolicy   = base tsi bai dice\nber      = 0 1e-7 1e-5\nfault-policy = ecc\n",
		"workload = gcc\nber = 0, 1e-5\n",
		"workload = gcc\nthreshold = 24..48 step 4\n",
		"workload = gcc\nbw = 1 3..4\n",
		"workload = pr_twi gap\n",
		"name = sweep-smoke\nrefs = 120\nworkload = rate\npolicy = base tsi dice\nthreshold = 24 36 48\nlatency = full half\n",
		"workload = gcc\nthreshold = 100\n",
		"workload = gcc\nmlp = 4 step 2\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		n := len(spec.Workloads)
		for _, vals := range spec.axes {
			if n *= len(vals); n > fuzzMaxCells {
				return
			}
		}
		a, errA := spec.Expand()
		b, errB := spec.Expand()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("expansion errors differ: %v vs %v", errA, errB)
		}
		if len(a) != len(b) {
			t.Fatalf("expansions differ in length: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("expansions differ at %d: %s vs %s", i, a[i].Key(), b[i].Key())
			}
		}
	})
}
