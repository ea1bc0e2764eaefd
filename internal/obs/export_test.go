package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// decodeLines decodes NDJSON epoch lines, failing on any line that is
// not exactly one EpochLine.
func decodeLines(t *testing.T, b []byte) []EpochLine {
	t.Helper()
	var out []EpochLine
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l EpochLine
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("line %d does not decode as an EpochLine (%v): %s", len(out), err, sc.Text())
		}
		out = append(out, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExportRoundTrip checks that recorded snapshots survive the
// epoch-line export exactly — awkward floats included — with their keys
// and in order, for an empty and a small recorder.
func TestExportRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		n    int
	}{
		{"json-empty", 0},
		{"json-small", 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var snaps []Snapshot
			r := NewRecorder(100, func(s Snapshot) { snaps = append(snaps, s) })
			for i := 0; i < tc.n; i++ {
				r.Record(fakeSnapshot(i))
			}
			var b bytes.Buffer
			w := NewEpochWriter(&b)
			var want []EpochLine
			for _, key := range []string{"dice|gcc", "base|mcf"} {
				for _, s := range snaps {
					w.Emit(key, s)
					want = append(want, EpochLine{Key: key, Snap: s})
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w.Count() != 2*tc.n || len(want) != 2*tc.n {
				t.Fatalf("Count = %d, want %d", w.Count(), 2*tc.n)
			}
			if got := decodeLines(t, b.Bytes()); !reflect.DeepEqual(got, want) {
				t.Fatalf("lines did not round-trip:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestWriteEpochsSortsKeys pins WriteEpochs' byte order: keys sorted,
// each key's snapshots in slice order, whatever the map's order.
func TestWriteEpochsSortsKeys(t *testing.T) {
	byKey := map[string][]Snapshot{
		"tsi|mcf":  {fakeSnapshot(1)},
		"base|gcc": {fakeSnapshot(2), fakeSnapshot(3)},
		"dice|gcc": {fakeSnapshot(4)},
	}
	var b bytes.Buffer
	if err := WriteEpochs(&b, byKey); err != nil {
		t.Fatal(err)
	}
	want := []EpochLine{
		{"base|gcc", fakeSnapshot(2)}, {"base|gcc", fakeSnapshot(3)},
		{"dice|gcc", fakeSnapshot(4)}, {"tsi|mcf", fakeSnapshot(1)},
	}
	if got := decodeLines(t, b.Bytes()); !reflect.DeepEqual(got, want) {
		t.Fatalf("WriteEpochs order:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJSONRejectsNonFinite pins the export's behavior on NaN/Inf: JSON
// cannot encode them, so the snapshot is refused with an error naming
// its epoch and key, no partial line is written, and nothing after it
// is written either.
func TestJSONRejectsNonFinite(t *testing.T) {
	for name, bad := range map[string]Snapshot{
		"nan":    {Epoch: 1, IPC: math.NaN()},
		"inf":    {Epoch: 1, L4HitRate: math.Inf(-1)},
		"vector": {Epoch: 1, CoreIPC: []float64{0.25, math.Inf(1)}},
	} {
		t.Run(name, func(t *testing.T) {
			var b bytes.Buffer
			w := NewEpochWriter(&b)
			w.Emit("dice|gcc", Snapshot{Epoch: 0, IPC: 1.5, CoreIPC: []float64{1, 2}})
			w.Emit("dice|gcc", bad)
			w.Emit("dice|gcc", Snapshot{Epoch: 2})
			err := w.Close()
			if err == nil {
				t.Fatal("a non-finite snapshot was accepted")
			}
			for _, want := range []string{"epoch 1", "dice|gcc"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not mention %q", err, want)
				}
			}
			lines := decodeLines(t, b.Bytes())
			if len(lines) != 1 || lines[0].Snap.Epoch != 0 || w.Count() != 1 {
				t.Fatalf("want only the finite epoch 0 line, got %d lines (Count %d): %q", len(lines), w.Count(), b.String())
			}
			if !bytes.HasSuffix(b.Bytes(), []byte("}\n")) {
				t.Fatalf("output ends in a partial line: %q", b.String())
			}
		})
	}
}

// closeRecorder is a writer that records its Close calls.
type closeRecorder struct {
	bytes.Buffer
	closes int
}

func (c *closeRecorder) Close() error { c.closes++; return nil }

// TestEpochWriterConcurrentEmit emits from several goroutines at once:
// every line lands whole, and Close closes the underlying writer once,
// however often it is called.
func TestEpochWriterConcurrentEmit(t *testing.T) {
	const goroutines, perG = 8, 50
	var c closeRecorder
	w := NewEpochWriter(&c)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.Emit(fmt.Sprintf("cfg%d|w", g), fakeSnapshot(i))
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Emit("late|w", Snapshot{})
	if c.closes != 1 {
		t.Fatalf("underlying writer closed %d times, want 1", c.closes)
	}
	perKey := map[string]int{}
	for _, l := range decodeLines(t, c.Bytes()) {
		perKey[l.Key]++
	}
	if len(perKey) != goroutines || w.Count() != goroutines*perG {
		t.Fatalf("got %d keys and Count %d, want %d and %d", len(perKey), w.Count(), goroutines, goroutines*perG)
	}
	for k, n := range perKey {
		if n != perG {
			t.Fatalf("key %s has %d lines, want %d", k, n, perG)
		}
	}
}
