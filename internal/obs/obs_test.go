package obs

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// fakeSnapshot builds a fully-populated snapshot with value-bearing
// fields derived from i, including awkward floats that must survive a
// lossless round-trip.
func fakeSnapshot(i int) Snapshot {
	f := float64(i)
	return Snapshot{
		Refs:             uint64(1000 + i),
		IPC:              1.0/3.0 + f,
		CoreIPC:          []float64{f + 0.1, f + 0.2, math.Pi * f},
		L4Reads:          uint64(10 * i),
		L4HitRate:        1 / (f + 2),
		L4Queue:          uint64(i),
		L4BusUtil:        0.5 + f/1000,
		L4BytesPerAccess: 96.5,
		DDRReads:         uint64(3 * i),
		DDRWrites:        uint64(i / 2),
		DDRQueue:         uint64(i % 5),
		DDRBusUtil:       f / 7,
		EffCapacity:      1.37,
		InstallBAI:       uint64(i),
		InstallTSI:       uint64(2 * i),
		InstallInvariant: uint64(3 * i),
		CIPBAIFrac:       f / 13,
		CIPPolicyBAI:     uint64(i % 2),
		CIPAccuracy:      0.93,
		CIPPredictions:   uint64(100 * i),
		CIPFlips:         uint64(i),
		FaultCorrected:   uint64(i),
		FaultDetected:    uint64(i + 1),
		FaultSilent:      uint64(i + 2),
		FaultRefetches:   uint64(i + 3),
		QuarantinedSets:  uint64(i % 3),
	}
}

// TestRecorderSinkGetsEverySnapshot records more epochs than the old
// 4096-snapshot ring held and requires the sink to receive every one,
// in order, stamped with its epoch index, boundary and length.
func TestRecorderSinkGetsEverySnapshot(t *testing.T) {
	const n = 5000
	var got []Snapshot
	r := NewRecorder(50, func(s Snapshot) { got = append(got, s) })
	for i := 0; i < n; i++ {
		r.Record(fakeSnapshot(i))
	}
	if len(got) != n {
		t.Fatalf("sink received %d of %d snapshots", len(got), n)
	}
	for i, s := range got {
		want := fakeSnapshot(i)
		want.Epoch, want.EndCycle, want.Cycles = uint64(i), uint64(i+1)*50, 50
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("snapshot %d:\ngot  %+v\nwant %+v", i, s, want)
		}
	}
}

// TestRecorderDue checks boundary arithmetic, including several
// boundaries crossed by one time jump, and nil safety.
func TestRecorderDue(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Due(1 << 40) {
		t.Fatal("nil recorder must never be due")
	}
	r := NewRecorder(100, func(Snapshot) {})
	if r.Due(99) {
		t.Fatal("due before first boundary")
	}
	// A jump past three boundaries drains three records.
	n := 0
	for r.Due(350) {
		r.Record(Snapshot{})
		n++
	}
	if n != 3 {
		t.Fatalf("drained %d boundaries, want 3", n)
	}
	if r.Boundary() != 400 {
		t.Fatalf("next boundary %d, want 400", r.Boundary())
	}
}

// countingArg counts how often the tracer formats it, so a test can
// see that a disabled emission never formats.
type countingArg struct{ n *int }

func (a countingArg) String() string { *a.n++; return "d" }

// TestTracerParseAndOverflow covers component-list parsing (including
// errors) and that the tracer never overflows: it keeps no log of its
// own, so every enabled event reaches the sink, in order, with none
// dropped however many are emitted.
func TestTracerParseAndOverflow(t *testing.T) {
	if _, err := ParseComponents("cip,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want error naming the bad component, got %v", err)
	}
	mask, err := ParseComponents("all")
	if err != nil {
		t.Fatal(err)
	}
	for c := Component(0); c < numComponents; c++ {
		if mask&(1<<c) == 0 {
			t.Fatalf("'all' must enable %v", c)
		}
	}
	if mask, err := ParseComponents(" , "); err != nil || mask != 0 {
		t.Fatalf("blank list = %#x, %v; want 0, nil", mask, err)
	}

	var got []Event
	tr, err := NewTracer("sim", func(e Event) { got = append(got, e) })
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Emitf(uint64(i), CompSim, "tick", "%d", i)
		tr.Emitf(uint64(i), CompDRAM, "tick", "%d", i) // disabled
	}
	if len(got) != n {
		t.Fatalf("sink got %d events, want all %d", len(got), n)
	}
	for i, e := range got {
		if e.Cycle != uint64(i) || e.Comp != CompSim || e.Detail != fmt.Sprint(i) {
			t.Fatalf("event %d = %v, want cycle %d from sim", i, e, i)
		}
	}
}

// TestTracerFilter pins the tracer's contract: the sink gets exactly
// the enabled components' events, in emission order; a disabled
// component or a nil tracer neither reaches the sink nor formats; a
// nil sink panics; an unknown component is an error listing every
// name the component table spells.
func TestTracerFilter(t *testing.T) {
	all := []Component{CompCIP, CompFault, CompDCache, CompDRAM, CompSim}
	var names []string
	for _, c := range all {
		names = append(names, c.String())
	}
	cases := []struct {
		name       string
		components string
		nilTracer  bool
		nilSink    bool
		want       []Component // components that reach the sink
		wantErr    string
	}{
		{name: "subset", components: "cip, fault", want: []Component{CompCIP, CompFault}},
		{name: "all", components: "all", want: all},
		{name: "all plus a name", components: "sim,all", want: all},
		{name: "none", components: ""},
		{name: "nil tracer", nilTracer: true},
		{name: "nil sink", components: "cip", nilSink: true},
		{name: "unknown", components: "cip,bogus",
			wantErr: `unknown trace component "bogus" (have ` + strings.Join(names, ", ") + ", all)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []Event
			sink := func(e Event) { got = append(got, e) }
			if tc.nilSink {
				sink = nil
			}
			var tr *Tracer
			if !tc.nilTracer {
				var err error
				var panicked any
				func() {
					defer func() { panicked = recover() }()
					tr, err = NewTracer(tc.components, sink)
				}()
				if tc.nilSink {
					if !strings.Contains(fmt.Sprint(panicked), "needs a sink") {
						t.Fatalf("NewTracer with a nil sink: panic %v, want one naming the sink", panicked)
					}
					return
				}
				if panicked != nil {
					t.Fatalf("NewTracer(%q) panicked: %v", tc.components, panicked)
				}
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("NewTracer(%q) = %v, want error containing %q", tc.components, err, tc.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			enabled := map[Component]bool{}
			for _, c := range tc.want {
				enabled[c] = true
			}
			formats := 0
			var want []Event
			for round := 0; round < 2; round++ {
				for i, c := range all {
					if tr.Enabled(c) != enabled[c] {
						t.Fatalf("Enabled(%v) = %v, want %v", c, tr.Enabled(c), enabled[c])
					}
					cycle := uint64(10*round + i)
					tr.Emitf(cycle, c, "kind", "%v%d", countingArg{&formats}, round)
					if enabled[c] {
						want = append(want, Event{Cycle: cycle, Comp: c, Kind: "kind", Detail: fmt.Sprintf("d%d", round)})
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sink got %v, want %v", got, want)
			}
			if formats != len(want) {
				t.Fatalf("formatted %d times for %d delivered events", formats, len(want))
			}
		})
	}
}

// TestMetricsDocCoversSchema enumerates the export schema and greps
// METRICS.md for each field, so the reference doc cannot silently
// drift from the code. Trace components and event kinds must be
// documented too.
func TestMetricsDocCoversSchema(t *testing.T) {
	doc, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatalf("METRICS.md must exist at the repo root: %v", err)
	}
	text := string(doc)
	fields := SchemaFields()
	if len(fields) == 0 {
		t.Fatal("schema has no fields")
	}
	for _, f := range fields {
		if !strings.Contains(text, "`"+f+"`") {
			t.Errorf("METRICS.md does not document schema field `%s`", f)
		}
	}
	for _, top := range []string{"key", "snap"} {
		if !strings.Contains(text, "`"+top+"`") {
			t.Errorf("METRICS.md does not document epoch-line field `%s`", top)
		}
	}
	for c := Component(0); c < numComponents; c++ {
		if !strings.Contains(text, "`"+c.String()+"`") {
			t.Errorf("METRICS.md does not document trace component `%s`", c)
		}
	}
}

// TestSelfSampleMonotone sanity-checks the runtime/metrics plumbing:
// allocating between two captures must move the counters forward.
func TestSelfSampleMonotone(t *testing.T) {
	before := CaptureSelf()
	sink := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	after := CaptureSelf()
	if after.AllocBytes <= before.AllocBytes || after.AllocObjects <= before.AllocObjects {
		t.Fatalf("allocation counters did not advance: %+v -> %+v", before, after)
	}
	rep := SelfReport(before, after, 2_000_000)
	if !strings.Contains(rep, "per M-tick") {
		t.Fatalf("normalized report missing rate: %q", rep)
	}
	if rep0 := SelfReport(before, after, 0); strings.Contains(rep0, "per M-tick") {
		t.Fatalf("zero-tick report must omit rates: %q", rep0)
	}
}

// TestRecorderValidation pins constructor error behavior: a zero
// epoch and a nil sink both panic.
func TestRecorderValidation(t *testing.T) {
	for name, mk := range map[string]func(){
		"zero epoch": func() { NewRecorder(0, func(Snapshot) {}) },
		"nil sink":   func() { NewRecorder(100, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewRecorder with a %s must panic", name)
				}
			}()
			mk()
		}()
	}
}

// Example of the event rendering format, pinned because operators
// grep these lines.
func ExampleEvent_String() {
	e := Event{Cycle: 123456, Comp: CompCIP, Kind: "flip", Detail: "page 0x1f -> BAI"}
	fmt.Println(e.String())
	// Output: [      123456] cip    flip             page 0x1f -> BAI
}
