package sim

import (
	"math"
	"strings"
	"testing"

	"dice/internal/dcache"
	"dice/internal/workloads"
)

// quickRefs keeps unit-test runs fast; experiments use larger windows.
const quickRefs = 30_000

func run(t *testing.T, name string, cfg Config) Result {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RefsPerCore == 0 {
		cfg.RefsPerCore = quickRefs
	}
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring of the error; "" means valid
	}{
		{"zero value", Config{}, ""},
		{"ScaleShift 18 boundary", Config{ScaleShift: 18}, ""},
		{"ScaleShift 19 over", Config{ScaleShift: 19}, "ScaleShift"},
		{"ScaleShift far over", Config{ScaleShift: 25}, "ScaleShift"},
		{"CapacityMult -1", Config{CapacityMult: -1}, "CapacityMult"},
		{"CapacityMult 0 default", Config{CapacityMult: 0}, ""},
		{"CapacityMult 4 boundary", Config{CapacityMult: 4}, ""},
		{"CapacityMult 5 over", Config{CapacityMult: 5}, "CapacityMult"},
		{"BWMult -1", Config{BWMult: -1}, "BWMult"},
		{"BWMult 0 default", Config{BWMult: 0}, ""},
		{"BWMult 4 boundary", Config{BWMult: 4}, ""},
		{"BWMult 5 over", Config{BWMult: 5}, "BWMult"},
		{"FaultBER negative", Config{FaultBER: -1e-6}, "FaultBER"},
		{"FaultBER over max", Config{FaultBER: 0.5}, "FaultBER"},
		{"FaultBER boundary", Config{FaultBER: 0.1}, ""},
		{"FaultBER NaN", Config{FaultBER: math.NaN()}, "FaultBER"},
		{"Threshold 64 boundary", Config{Threshold: 64}, ""},
		{"Threshold 100 over", Config{Threshold: 100}, "Threshold"},
		{"FaultPolicy ecc", Config{FaultPolicy: "ecc"}, ""},
		{"FaultPolicy bogus", Config{FaultPolicy: "parity"}, "unknown policy"},
		{"CompressAlg fpc", Config{CompressAlg: "fpc"}, ""},
		{"CompressAlg bogus", Config{CompressAlg: "zip"}, "CompressAlg"},
		{"RefsPerCore 0 auto", Config{RefsPerCore: 0}, ""},
		{"RefsPerCore -5", Config{RefsPerCore: -5}, "RefsPerCore"},
		{"RefsPerCore 1<<30 boundary", Config{RefsPerCore: 1 << 30}, ""},
		{"RefsPerCore MaxInt", Config{RefsPerCore: math.MaxInt}, "RefsPerCore"},
		{"MLPWindow 1", Config{MLPWindow: 1}, ""},
		{"MLPWindow -1", Config{MLPWindow: -1}, "MLPWindow"},
		{"MLPWindow -5", Config{MLPWindow: -5}, "MLPWindow"},
		{"MLPWindow 1024 boundary", Config{MLPWindow: 1024}, ""},
		{"MLPWindow 1025 over", Config{MLPWindow: 1025}, "MLPWindow"},
		{"CIPEntries 512", Config{CIPEntries: 512}, ""},
		{"CIPEntries -4", Config{CIPEntries: -4}, "CIPEntries"},
		{"CIPEntries 3000", Config{CIPEntries: 3000}, "CIPEntries"},
		{"CIPEntries 1<<20 boundary", Config{CIPEntries: 1 << 20}, ""},
		{"CIPEntries 1<<21 over", Config{CIPEntries: 1 << 21}, "CIPEntries"},
		{"CIPEntries 1<<40 over", Config{CIPEntries: 1 << 40}, "CIPEntries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %s", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsInvalidConfig runs configs that used to panic deep in
// setup (a negative MLP window sizing a slice, a negative LTT size) or
// to return nonsense (negative refs gave negative IPCs): each must come
// back from Run, on both cores, as an error naming the field.
func TestRunRejectsInvalidConfig(t *testing.T) {
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"refs -5", Config{RefsPerCore: -5}, "RefsPerCore"},
		{"mlp -5", Config{RefsPerCore: 300, MLPWindow: -5}, "MLPWindow"},
		{"mlp -1", Config{RefsPerCore: 300, MLPWindow: -1}, "MLPWindow"},
		{"cip -4", Config{RefsPerCore: 300, Policy: dcache.PolicyDICE, CIPEntries: -4}, "CIPEntries"},
		{"cip 3", Config{RefsPerCore: 300, Policy: dcache.PolicyDICE, CIPEntries: 3}, "CIPEntries"},
	}
	for _, tc := range cases {
		for core, runFn := range map[string]func(Config, workloads.Workload) (Result, error){
			"event":     Run,
			"reference": RunReference,
		} {
			t.Run(core+"/"+tc.name, func(t *testing.T) {
				res, err := runFn(tc.cfg, w)
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Run = (IPC %v, err %v), want an error naming %s", res.IPC, err, tc.wantErr)
				}
			})
		}
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	r := run(t, "gcc", Config{Policy: dcache.PolicyUncompressed})
	if len(r.IPC) != 8 {
		t.Fatalf("IPC entries = %d", len(r.IPC))
	}
	for i, ipc := range r.IPC {
		if ipc <= 0 || ipc > 32 {
			t.Fatalf("core %d IPC = %v out of plausible range", i, ipc)
		}
	}
	if r.Cycles == 0 {
		t.Fatal("no cycles measured")
	}
	if r.L3.Hits+r.L3.Misses == 0 {
		t.Fatal("L3 saw no traffic")
	}
	if r.L4.Reads == 0 {
		t.Fatal("L4 saw no reads")
	}
	if r.HBM.Accesses() == 0 {
		t.Fatal("stacked DRAM saw no traffic")
	}
	if r.Energy.Total() <= 0 {
		t.Fatal("energy must be positive")
	}
	// A capacity-stressed workload must reach main memory after warmup.
	big := run(t, "mcf", Config{Policy: dcache.PolicyUncompressed})
	if big.DDR.Accesses() == 0 {
		t.Fatal("mcf must miss to main memory")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Policy: dcache.PolicyDICE}
	a := run(t, "soplex", cfg)
	b := run(t, "soplex", cfg)
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("core %d IPC differs", i)
		}
	}
	if a.L4 != b.L4 {
		t.Fatalf("L4 stats differ:\n%+v\n%+v", a.L4, b.L4)
	}
}

func TestDICEBeatsBaselineOnCompressibleWorkload(t *testing.T) {
	base := run(t, "gcc", Config{Policy: dcache.PolicyUncompressed})
	dice := run(t, "gcc", Config{Policy: dcache.PolicyDICE})
	s := Speedup(base, dice)
	if s < 1.05 {
		t.Fatalf("DICE speedup on gcc = %.3f, want > 1.05", s)
	}
	if dice.L3.HitRate() <= base.L3.HitRate() {
		t.Fatalf("DICE must raise L3 hit rate: %.3f vs %.3f",
			dice.L3.HitRate(), base.L3.HitRate())
	}
}

func TestBAIHurtsIncompressibleButDICEDoesNot(t *testing.T) {
	base := run(t, "libq", Config{Policy: dcache.PolicyUncompressed})
	bai := run(t, "libq", Config{Policy: dcache.PolicyBAI})
	dice := run(t, "libq", Config{Policy: dcache.PolicyDICE})
	if s := Speedup(base, bai); s > 0.9 {
		t.Fatalf("BAI on libq = %.3f, want significant slowdown", s)
	}
	if s := Speedup(base, dice); s < 0.97 {
		t.Fatalf("DICE on libq = %.3f, must not degrade", s)
	}
}

func TestTSIGivesCapacityBenefitOnLargeFootprint(t *testing.T) {
	base := run(t, "mcf", Config{Policy: dcache.PolicyUncompressed})
	tsi := run(t, "mcf", Config{Policy: dcache.PolicyTSI})
	if s := Speedup(base, tsi); s < 1.02 {
		t.Fatalf("TSI on mcf = %.3f, want capacity speedup", s)
	}
	if tsi.L4.HitRate() <= base.L4.HitRate() {
		t.Fatal("TSI compression must raise L4 hit rate on mcf")
	}
	if tsi.EffCapacity <= base.EffCapacity {
		t.Fatal("TSI must hold more lines than baseline")
	}
}

func TestDoubleCapacityDoubleBWUpperBound(t *testing.T) {
	base := run(t, "soplex", Config{Policy: dcache.PolicyUncompressed})
	ideal := run(t, "soplex", Config{Policy: dcache.PolicyUncompressed,
		CapacityMult: 2, BWMult: 2})
	if s := Speedup(base, ideal); s < 1.0 {
		t.Fatalf("2x capacity + 2x BW = %.3f, must not slow down", s)
	}
}

func TestSCCSlowerThanDICE(t *testing.T) {
	base := run(t, "gcc", Config{Policy: dcache.PolicyUncompressed})
	scc := run(t, "gcc", Config{Policy: dcache.PolicySCC})
	dice := run(t, "gcc", Config{Policy: dcache.PolicyDICE})
	if Speedup(base, scc) >= Speedup(base, dice) {
		t.Fatal("SCC's 4 accesses per request must underperform DICE")
	}
	if scc.L4.Probes < 3*scc.L4.Reads {
		t.Fatalf("SCC probes = %d for %d reads, want ~4x", scc.L4.Probes, scc.L4.Reads)
	}
}

func TestKNLClosesToAlloy(t *testing.T) {
	base := run(t, "gcc", Config{Policy: dcache.PolicyUncompressed})
	alloy := run(t, "gcc", Config{Policy: dcache.PolicyDICE, Org: dcache.OrgAlloy})
	knl := run(t, "gcc", Config{Policy: dcache.PolicyDICE, Org: dcache.OrgKNL})
	sa, sk := Speedup(base, alloy), Speedup(base, knl)
	if sk < 1.0 {
		t.Fatalf("KNL DICE = %.3f, must still beat baseline on gcc", sk)
	}
	if sk > sa+0.05 {
		t.Fatalf("KNL (%.3f) should not beat Alloy (%.3f) by a margin", sk, sa)
	}
}

func TestPrefetchModesRun(t *testing.T) {
	base := Config{Policy: dcache.PolicyUncompressed}
	nl, wide := base, base
	nl.Prefetch, wide.Prefetch = PrefetchNextLine, PrefetchWide128
	// Prefetching must add L4 traffic. mcf's pointer chasing makes most
	// next-line and buddy prefetches useless, so each one issued is an
	// extra L4 read. (On a streaming workload such as leslie3d a useful
	// prefetch replaces the demand miss it anticipates one for one, and
	// net L4 reads there measure timing noise, not the prefetcher.)
	mb, mn, mw := run(t, "mcf", base), run(t, "mcf", nl), run(t, "mcf", wide)
	if mn.L4.Reads <= mb.L4.Reads || mw.L4.Reads <= mb.L4.Reads {
		t.Fatalf("prefetch modes must add L4 reads: base %d, nextline %d, wide128 %d",
			mb.L4.Reads, mn.L4.Reads, mw.L4.Reads)
	}
	// And must not catastrophically degrade a streaming workload.
	if s := Speedup(run(t, "leslie3d", base), run(t, "leslie3d", nl)); s < 0.7 {
		t.Fatalf("nextline prefetch speedup = %.3f", s)
	}
}

// TestPrefetchCountersSum checks every prefetch candidate is counted
// in exactly one outcome: the three drops plus the issued prefetches
// equal the triggers, on a next-line and a 128B cell; with prefetching
// off every counter stays zero.
func TestPrefetchCountersSum(t *testing.T) {
	for _, mode := range []PrefetchMode{PrefetchNextLine, PrefetchWide128} {
		p := run(t, "libq", Config{Policy: dcache.PolicyDICE, Prefetch: mode, RefsPerCore: 5_000}).Prefetches
		if p.Triggered == 0 || p.Issued == 0 {
			t.Fatalf("mode %d: no prefetch triggered or issued: %+v", mode, p)
		}
		if sum := p.PastFootprint + p.L3Resident + p.Throttled + p.Issued; sum != p.Triggered {
			t.Fatalf("mode %d: drops plus issued = %d, triggered = %d (%+v)", mode, sum, p.Triggered, p)
		}
	}
	if p := run(t, "libq", Config{Policy: dcache.PolicyDICE, RefsPerCore: 5_000}).Prefetches; p != (PrefetchStats{}) {
		t.Fatalf("prefetching off counted %+v", p)
	}
}

func TestMixWorkloadRuns(t *testing.T) {
	w := workloads.Mixes()[0]
	r, err := Run(Config{Policy: dcache.PolicyDICE, RefsPerCore: quickRefs}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.IPC) != 8 {
		t.Fatal("mix must produce 8 per-core IPCs")
	}
	// Mixed cores run different benchmarks, so IPCs should differ.
	same := true
	for i := 1; i < len(r.IPC); i++ {
		if r.IPC[i] != r.IPC[0] {
			same = false
		}
	}
	if same {
		t.Fatal("mix cores all produced identical IPC")
	}
}

func TestGAPWorkloadRuns(t *testing.T) {
	w, err := workloads.ByName("cc_twi")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(Config{Policy: dcache.PolicyUncompressed, RefsPerCore: quickRefs}, w)
	if err != nil {
		t.Fatal(err)
	}
	dice, err := Run(Config{Policy: dcache.PolicyDICE, RefsPerCore: quickRefs}, w)
	if err != nil {
		t.Fatal(err)
	}
	if s := Speedup(base, dice); s < 1.0 {
		t.Fatalf("DICE on cc_twi = %.3f, graph workloads must benefit", s)
	}
	if dice.EffCapacity <= base.EffCapacity {
		t.Fatal("graph data must compress into extra capacity")
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := Result{IPC: []float64{1, 2}}
	b := Result{IPC: []float64{2, 2}}
	if s := Speedup(a, b); s != 1.5 {
		t.Fatalf("speedup = %v, want 1.5", s)
	}
	if Speedup(Result{}, Result{}) != 0 {
		t.Fatal("empty speedup must be 0")
	}
	if Speedup(a, Result{IPC: []float64{1}}) != 0 {
		t.Fatal("mismatched cores must be 0")
	}
}

func TestCIPAccuracyHighUnderDICE(t *testing.T) {
	r := run(t, "soplex", Config{Policy: dcache.PolicyDICE})
	if r.CIPPredictions == 0 {
		t.Fatal("DICE must exercise the CIP")
	}
	if r.CIPAccuracy < 0.8 {
		t.Fatalf("CIP accuracy = %.3f, want > 0.8", r.CIPAccuracy)
	}
}

func TestWritebacksReachMainMemory(t *testing.T) {
	r := run(t, "lbm", Config{Policy: dcache.PolicyUncompressed})
	if r.DDR.Writes == 0 {
		t.Fatal("a write-heavy workload must produce DDR writebacks")
	}
}

func TestCompressAlgRestriction(t *testing.T) {
	// soplex data is a broad mix; restricting the compressor must still
	// run and produce a valid result, and the hybrid should hold at
	// least as much as either restricted algorithm.
	hybrid := run(t, "soplex", Config{Policy: dcache.PolicyDICE})
	fpc := run(t, "soplex", Config{Policy: dcache.PolicyDICE, CompressAlg: "fpc"})
	bdi := run(t, "soplex", Config{Policy: dcache.PolicyDICE, CompressAlg: "bdi"})
	if fpc.L4.Reads == 0 || bdi.L4.Reads == 0 {
		t.Fatal("restricted runs produced no traffic")
	}
	if hybrid.EffCapacity < fpc.EffCapacity-0.05 ||
		hybrid.EffCapacity < bdi.EffCapacity-0.05 {
		t.Fatalf("hybrid capacity %.2f below restricted (%.2f fpc, %.2f bdi)",
			hybrid.EffCapacity, fpc.EffCapacity, bdi.EffCapacity)
	}
	w, _ := workloads.ByName("gcc")
	_, err := Run(Config{Policy: dcache.PolicyDICE, CompressAlg: "zip", RefsPerCore: 1000}, w)
	if err == nil || !strings.Contains(err.Error(), "CompressAlg") {
		t.Fatalf("bogus CompressAlg: err = %v, want CompressAlg error", err)
	}
}

func TestFaultInjectionDegradesAndReports(t *testing.T) {
	clean := run(t, "gcc", Config{Policy: dcache.PolicyDICE})
	faulty := run(t, "gcc", Config{Policy: dcache.PolicyDICE, FaultBER: 3e-3})
	if faulty.Fault.Frames == 0 || faulty.Fault.Flipped == 0 {
		t.Fatalf("no faults injected at BER 3e-3: %+v", faulty.Fault)
	}
	if faulty.L4.FaultDetectedFrames == 0 {
		t.Fatal("no detected-uncorrectable frames reached the cache")
	}
	if faulty.L4.HitRate() >= clean.L4.HitRate() {
		t.Fatalf("faults must cost hits: %.4f faulty vs %.4f clean",
			faulty.L4.HitRate(), clean.L4.HitRate())
	}
	if clean.Fault.Frames != 0 || clean.QuarantinedSets != 0 {
		t.Fatal("fault stats moved with injection off")
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	cfg := Config{Policy: dcache.PolicyDICE, FaultBER: 1e-3, FaultSeed: 11}
	a := run(t, "soplex", cfg)
	b := run(t, "soplex", cfg)
	if a.L4 != b.L4 || a.Fault != b.Fault || a.Cycles != b.Cycles {
		t.Fatal("identical (seed, BER) runs diverged")
	}
	c := run(t, "soplex", Config{Policy: dcache.PolicyDICE, FaultBER: 1e-3, FaultSeed: 12})
	if a.Fault == c.Fault {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestHalfLatencyHelps(t *testing.T) {
	base := run(t, "milc", Config{Policy: dcache.PolicyUncompressed})
	fast := run(t, "milc", Config{Policy: dcache.PolicyUncompressed, HalfLatency: true})
	if s := Speedup(base, fast); s < 1.0 {
		t.Fatalf("half-latency L4 speedup = %.3f, want >= 1", s)
	}
}
