package sim

import (
	"reflect"
	"runtime"
	"testing"

	"dice/internal/dcache"
	"dice/internal/workloads"
)

// fuzzWorkloads is the pool of small, structurally distinct workloads
// the fuzzer draws from (cache-friendly, streaming, and compressible
// kinds exercise different L4 policy paths).
var fuzzWorkloads = []string{"gcc", "libq", "milc"}

// fuzzConfig derives a valid sim Config from raw fuzz knobs. Every
// reachable value is valid by construction — the oracle is equality of
// the two simulation cores, not input validation.
func fuzzConfig(knobs uint32, refs16 uint16, faultSel uint64) Config {
	policies := []dcache.Policy{
		dcache.PolicyUncompressed, dcache.PolicyTSI, dcache.PolicyNSI,
		dcache.PolicyBAI, dcache.PolicyDICE, dcache.PolicySCC,
	}
	cfg := Config{
		Policy:      policies[knobs%uint32(len(policies))],
		RefsPerCore: 32 + int(refs16)%384,
		MLPWindow:   1 + int(knobs>>3)%8,
		Prefetch:    PrefetchMode((knobs >> 6) % 3),
		ScaleShift:  12 + uint(knobs>>8)%3,
	}
	if knobs>>11&1 == 1 {
		cfg.Threshold = 40 + int(knobs>>12)%25 // within dcache's [?, 64] bound
	}
	if knobs>>17&1 == 1 {
		cfg.BWMult = 2
	}
	if knobs>>18&1 == 1 {
		cfg.HalfLatency = true
	}
	switch (knobs >> 19) % 3 {
	case 1:
		cfg.CompressAlg = "fpc"
	case 2:
		cfg.CompressAlg = "bdi"
	}
	if faultSel != 0 {
		cfg.FaultBER = 1e-3
		cfg.FaultSeed = faultSel
	}
	return cfg
}

// FuzzEventSchedule is the event-vs-cycle equality oracle under fuzzed
// config knobs and short reference streams: for any reachable
// configuration, the discrete-event core and the cycle-stepped
// reference must produce deeply equal Results and leave
// indistinguishable machines (cache fingerprint, fault-stream tick).
// The event core is meant to run on recycled L4 set storage, dirtied by
// a second fuzz-derived configuration of the same geometry run to
// completion and released first, and the reference core on fresh
// storage, so the oracle also compares a recycled DRAM cache with a
// fresh one. That hand-over is best-effort: sync.Pool may drop the
// released storage (it drops puts on purpose under the race detector)
// or keep it where a goroutine moved to another processor cannot take
// it, and then the event core runs on fresh storage, with nothing to
// signal it.
// The deterministic proof that recycled storage equals fresh is
// TestRecycledStorageMatchesFresh in internal/dcache.
func FuzzEventSchedule(f *testing.F) {
	// Seed corpus: one per policy family, fault injection on and off,
	// prefetch and knob variants (mirrored in testdata/fuzz).
	f.Add(uint32(0), uint16(100), uint32(0), uint64(0))
	f.Add(uint32(4), uint16(200), uint32(1), uint64(0))             // DICE on libq
	f.Add(uint32(4), uint16(300), uint32(2), uint64(7))             // DICE + faults
	f.Add(uint32(1<<17|1<<18|2), uint16(150), uint32(0), uint64(0)) // knobs + NSI
	f.Add(uint32(5|1<<6|1<<19), uint16(250), uint32(1), uint64(0))  // SCC + prefetch + fpc
	f.Add(uint32(3|1<<8), uint16(300), uint32(0), uint64(0))        // BAI after DICE + faults
	f.Fuzz(func(t *testing.T, knobs uint32, refs16 uint16, wl uint32, faultSel uint64) {
		w, err := workloads.ByName(fuzzWorkloads[wl%uint32(len(fuzzWorkloads))])
		if err != nil {
			t.Fatal(err)
		}
		cfg := fuzzConfig(knobs, refs16, faultSel)

		// Two collections empty the storage pools, so the only pooled
		// storage of cfg's geometry is the one the dirtying run releases.
		// The event core normally borrows it and keeps it, and the
		// reference core then gets fresh storage.
		runtime.GC()
		runtime.GC()
		dirty := fuzzConfig(knobs+1, refs16^0x5555, faultSel^1)
		dirty.ScaleShift = cfg.ScaleShift
		dw, err := workloads.ByName(fuzzWorkloads[(wl+1)%uint32(len(fuzzWorkloads))])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := RunEvent(dirty, dw); err != nil {
			t.Fatal(err)
		}

		evSt, err := prepare(cfg, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		runEvent(evSt)
		evRes := evSt.result()

		refSt, err := prepare(cfg, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		runReference(refSt)
		refRes := refSt.result()

		if !reflect.DeepEqual(evRes, refRes) {
			t.Fatalf("cores diverged under cfg %+v:\nevent: %+v\nref:   %+v", cfg, evRes, refRes)
		}
		if ef, rf := evSt.m.l4.Fingerprint(), refSt.m.l4.Fingerprint(); ef != rf {
			t.Fatalf("cache fingerprints diverged under cfg %+v: %#x vs %#x", cfg, ef, rf)
		}
		if evSt.fm != nil && evSt.fm.Tick() != refSt.fm.Tick() {
			t.Fatalf("fault streams diverged under cfg %+v: tick %d vs %d",
				cfg, evSt.fm.Tick(), refSt.fm.Tick())
		}
	})
}
