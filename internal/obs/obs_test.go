package obs

import (
	"bytes"
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

// TestTracerFilter checks that enabling "cip,fault" collects exactly
// those components' events and Enabled gates the rest.
func TestTracerFilter(t *testing.T) {
	tr, err := NewTracer("cip,fault", 16)
	if err != nil {
		t.Fatal(err)
	}
	all := []Component{CompCIP, CompFault, CompDCache, CompDRAM, CompSim}
	for i, c := range all {
		if want := c == CompCIP || c == CompFault; tr.Enabled(c) != want {
			t.Fatalf("Enabled(%v) = %v, want %v", c, tr.Enabled(c), want)
		}
		tr.Emit(uint64(i), c, "kind", "detail")
		tr.Emitf(uint64(i), c, "kindf", "i=%d", i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("collected %d events, want 4 (2 components x 2 emits)", len(evs))
	}
	for _, e := range evs {
		if e.Comp != CompCIP && e.Comp != CompFault {
			t.Fatalf("event from disabled component %v leaked through", e.Comp)
		}
	}

	var nilTr *Tracer
	if nilTr.Enabled(CompCIP) {
		t.Fatal("nil tracer must report disabled")
	}
	nilTr.Emit(0, CompCIP, "k", "d") // must not panic
}

// TestTracerParseAndOverflow covers component-list parsing (including
// errors) and the bounded log's drop accounting.
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

	tr, err := NewTracer("all", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tr.Emitf(uint64(i), CompSim, "tick", "%d", i)
	}
	if tr.Dropped() != 5 {
		t.Fatalf("dropped %d, want 5", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[0].Detail != "5" || evs[2].Detail != "7" {
		t.Fatalf("ring should retain the newest 3 events, got %v", evs)
	}
	var b bytes.Buffer
	if err := tr.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "5 dropped") {
		t.Fatalf("timeline should note drops:\n%s", b.String())
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
