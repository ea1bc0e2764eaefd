package sim

import (
	"bytes"
	"reflect"
	"testing"

	"dice/internal/dcache"
	"dice/internal/dram"
	"dice/internal/obs"
	"dice/internal/workloads"
)

// The differential harness: run the same (cfg, workload) on the event
// core and the cycle-stepped reference and require the two machines to
// be indistinguishable afterwards — not just equal Results, but equal
// cache contents (dcache.Fingerprint), aligned fault-draw streams
// (fault.Model.Tick), matching DRAM channel ready-times
// (dram.NextBusFree/NextCompletion on both devices), and byte-identical
// epoch exports.

// diffRun is one config run on both cores: the finished states, their
// results, the event core's stats, and each core's epoch series.
type diffRun struct {
	ev, ref           *runState
	evRes, refRes     Result
	es                EventStats
	evSnaps, refSnaps []obs.Snapshot
}

// runDiff executes cfg/w on both cores, with recorders attached when
// epoch > 0.
func runDiff(t *testing.T, cfg Config, w workloads.Workload, epoch uint64) *diffRun {
	t.Helper()
	d := &diffRun{}
	var evOb, refOb *obs.Observer
	if epoch > 0 {
		evOb = &obs.Observer{Rec: obs.NewRecorder(epoch, func(s obs.Snapshot) { d.evSnaps = append(d.evSnaps, s) })}
		refOb = &obs.Observer{Rec: obs.NewRecorder(epoch, func(s obs.Snapshot) { d.refSnaps = append(d.refSnaps, s) })}
	}
	var err error
	if d.ev, err = prepare(cfg, w, evOb); err != nil {
		t.Fatal(err)
	}
	d.es = runEvent(d.ev)
	d.evRes = d.ev.result()

	if d.ref, err = prepare(cfg, w, refOb); err != nil {
		t.Fatal(err)
	}
	runReference(d.ref)
	d.refRes = d.ref.result()
	return d
}

// checkMachinesEqual asserts every observable timing and content
// surface of the two finished machines matches.
func checkMachinesEqual(t *testing.T, ev, ref *runState) {
	t.Helper()
	if ef, rf := ev.m.l4.Fingerprint(), ref.m.l4.Fingerprint(); ef != rf {
		t.Errorf("L4 cache fingerprints diverged: %#x vs %#x", ef, rf)
	}
	if ev.fm != nil || ref.fm != nil {
		if (ev.fm == nil) != (ref.fm == nil) {
			t.Fatal("fault model present on one core only")
		}
		if et2, rt := ev.fm.Tick(), ref.fm.Tick(); et2 != rt {
			t.Errorf("fault draw streams diverged: tick %d vs %d", et2, rt)
		}
	}
	for _, pair := range []struct {
		name   string
		em, rm *dram.Memory
	}{
		{"hbm", ev.m.hbm, ref.m.hbm},
		{"ddr", ev.m.ddr, ref.m.ddr},
	} {
		chans := pair.em.Config().Channels
		for c := 0; c < chans; c++ {
			loc := dram.Loc{Channel: c}
			if a, b := pair.em.NextBusFree(loc), pair.rm.NextBusFree(loc); a != b {
				t.Errorf("%s ch%d NextBusFree diverged: %d vs %d", pair.name, c, a, b)
			}
			an, aok := pair.em.NextCompletion(loc)
			bn, bok := pair.rm.NextCompletion(loc)
			if aok != bok || an != bn {
				t.Errorf("%s ch%d NextCompletion diverged: (%d,%v) vs (%d,%v)",
					pair.name, c, an, aok, bn, bok)
			}
		}
	}
}

// checkEpochsEqual asserts the two cores recorded the same epochs and
// export them as byte-identical epoch lines.
func checkEpochsEqual(t *testing.T, evS, refS []obs.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(evS, refS) {
		t.Fatalf("epoch series diverged:\nevent: %d epochs\nref:   %d epochs", len(evS), len(refS))
	}
	var evOut, refOut bytes.Buffer
	if err := obs.WriteEpochs(&evOut, map[string][]obs.Snapshot{"k": evS}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteEpochs(&refOut, map[string][]obs.Snapshot{"k": refS}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(evOut.Bytes(), refOut.Bytes()) {
		t.Error("epoch exports differ")
	}
}

// TestEventCoreMatchesReferenceInternals sweeps the config axes the
// event core could plausibly break — compression policies, fault
// injection, bandwidth/latency knobs, prefetching, MLP-window size —
// and requires machine-level equivalence after every run.
func TestEventCoreMatchesReferenceInternals(t *testing.T) {
	const refs = 1_500
	cases := []struct {
		name string
		wl   string
		cfg  Config
	}{
		{"base-gcc", "gcc", Config{Policy: dcache.PolicyUncompressed}},
		{"dice-gcc", "gcc", Config{Policy: dcache.PolicyDICE}},
		{"dice-libq", "libq", Config{Policy: dcache.PolicyDICE}},
		{"tsi-milc", "milc", Config{Policy: dcache.PolicyTSI}},
		{"fault", "gcc", Config{Policy: dcache.PolicyDICE, FaultBER: 3e-3, FaultSeed: 7}},
		{"knobs", "gcc", Config{Policy: dcache.PolicyDICE, BWMult: 2, HalfLatency: true}},
		{"prefetch", "gcc", Config{Policy: dcache.PolicyDICE, Prefetch: PrefetchNextLine}},
		{"mlp1", "gcc", Config{Policy: dcache.PolicyDICE, MLPWindow: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := workloads.ByName(tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.RefsPerCore = refs
			d := runDiff(t, cfg, w, 10_000)
			if !reflect.DeepEqual(d.evRes, d.refRes) {
				t.Fatalf("results diverged:\nevent: %+v\nref:   %+v", d.evRes, d.refRes)
			}
			checkMachinesEqual(t, d.ev, d.ref)
			checkEpochsEqual(t, d.evSnaps, d.refSnaps)
			es := d.es
			wantCore := uint64(cores) * uint64(d.ev.warm+d.ev.refs)
			if es.CoreEvents != wantCore {
				t.Errorf("CoreEvents = %d, want %d", es.CoreEvents, wantCore)
			}
			if want := uint64(len(d.evSnaps)); es.EpochEvents != want {
				t.Errorf("EpochEvents = %d, want %d (snapshots recorded)", es.EpochEvents, want)
			}
			if es.CyclesSkipped == 0 {
				t.Error("CyclesSkipped = 0: the event core never skipped an idle cycle")
			}
		})
	}
}

// TestWarmResetEpochAlignment is the regression test for the warm-reset
// epoch-delta audit: under clock-skipping, the first snapshot after the
// all-cores-warm statistics reset must land on exactly the same
// boundary cycle as the cycle-stepped core's, and its delta counters —
// computed against counters that shrank at the reset — must match
// field-for-field. A scheduler that records boundaries early or late by
// even one event shifts refs between epochs and breaks this.
func TestWarmResetEpochAlignment(t *testing.T) {
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	// Small epoch: many boundaries, several of them straddling warmup.
	cfg := Config{Policy: dcache.PolicyDICE, RefsPerCore: 2_000}
	d := runDiff(t, cfg, w, 5_000)
	evSnaps, refSnaps := d.evSnaps, d.refSnaps
	if len(evSnaps) == 0 || len(evSnaps) != len(refSnaps) {
		t.Fatalf("snapshot counts diverged: %d vs %d", len(evSnaps), len(refSnaps))
	}
	for i := range evSnaps {
		if evSnaps[i].EndCycle != refSnaps[i].EndCycle {
			t.Fatalf("epoch %d boundary cycle diverged: %d vs %d",
				i, evSnaps[i].EndCycle, refSnaps[i].EndCycle)
		}
		if !reflect.DeepEqual(evSnaps[i], refSnaps[i]) {
			t.Fatalf("epoch %d snapshot diverged:\nevent: %+v\nref:   %+v",
				i, evSnaps[i], refSnaps[i])
		}
	}
	// Boundaries must be the exact multiples of the epoch length: the
	// event core schedules them as events rather than polling, and must
	// not drift.
	for i, s := range evSnaps {
		if want := uint64(i+1) * 5_000; s.EndCycle != want {
			t.Fatalf("epoch %d ends at cycle %d, want %d", i, s.EndCycle, want)
		}
	}
}

// TestRunReferenceExported pins the exported reference entry point:
// RunReference must equal RunEvent (the core Run executes on) for a
// representative config.
func TestRunReferenceExported(t *testing.T) {
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: dcache.PolicyDICE, RefsPerCore: 1_000}
	evRes, _, err := RunEvent(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := RunReference(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evRes, refRes) {
		t.Fatal("RunEvent and RunReference disagree")
	}
}
