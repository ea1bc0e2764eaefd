package sim

import (
	"reflect"
	"testing"

	"dice/internal/dcache"
	"dice/internal/obs"
	"dice/internal/workloads"
)

// TestRunObservedIsReadOnly is the observability determinism contract:
// attaching a recorder and a full-component tracer must leave the
// simulation result byte-identical to an unobserved run. Fault
// injection is enabled so the fault/dcache trace paths (set flushes,
// quarantines, refetches) execute during the check.
func TestRunObservedIsReadOnly(t *testing.T) {
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]Config{
		"dice":       {Policy: dcache.PolicyDICE, RefsPerCore: 4_000},
		"dice-fault": {Policy: dcache.PolicyDICE, RefsPerCore: 4_000, FaultBER: 3e-3, FaultSeed: 7},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			plain, err := Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			events := 0
			tr, err := obs.NewTracer("all", func(obs.Event) { events++ })
			if err != nil {
				t.Fatal(err)
			}
			epochs := 0
			ob := &obs.Observer{Rec: obs.NewRecorder(10_000, func(obs.Snapshot) { epochs++ }), Trace: tr}
			observed, err := RunObserved(cfg, w, ob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Fatalf("observation changed the result:\n%+v\nvs\n%+v", plain, observed)
			}
			if epochs == 0 {
				t.Fatal("recorder attached but no epochs sampled")
			}
			if events == 0 {
				t.Fatal("tracer attached to every component but no events reached its sink")
			}
		})
	}
}

// TestEpochSeriesShape sanity-checks the sampled series: regular time
// axis, refs accounted, and the warmup measurement-start event
// present when sim tracing is on.
func TestEpochSeriesShape(t *testing.T) {
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: dcache.PolicyDICE, RefsPerCore: 4_000}
	var evs []obs.Event
	tr, err := obs.NewTracer("sim", func(e obs.Event) { evs = append(evs, e) })
	if err != nil {
		t.Fatal(err)
	}
	var snaps []obs.Snapshot
	ob := &obs.Observer{Rec: obs.NewRecorder(20_000, func(s obs.Snapshot) { snaps = append(snaps, s) }), Trace: tr}
	if _, err := RunObserved(cfg, w, ob); err != nil {
		t.Fatal(err)
	}

	if len(snaps) < 2 {
		t.Fatalf("want several epochs, got %d", len(snaps))
	}
	var refs uint64
	for i, s := range snaps {
		if s.Epoch != uint64(i) {
			t.Fatalf("epoch %d stamped %d", i, s.Epoch)
		}
		if s.Cycles != 20_000 || s.EndCycle != uint64(i+1)*20_000 {
			t.Fatalf("irregular time axis at epoch %d: %+v", i, s)
		}
		if len(s.CoreIPC) != cores {
			t.Fatalf("epoch %d has %d core IPCs, want %d", i, len(s.CoreIPC), cores)
		}
		refs += s.Refs
	}
	// Epoch refs must account for (almost) the whole run — everything
	// but the tail after the last boundary.
	total := uint64(cfg.RefsPerCore) * cores * 3 / 2 // warmup 0.5 included
	if refs > total || refs < total/2 {
		t.Fatalf("epochs account for %d refs of %d run", refs, total)
	}

	if len(evs) != 1 || evs[0].Kind != "measurement-start" {
		t.Fatalf("sim tracing should yield exactly the measurement-start event, got %v", evs)
	}
}
