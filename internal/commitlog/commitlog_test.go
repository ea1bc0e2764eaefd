package commitlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// collect opens the log at path and returns the replayed payloads as
// strings alongside the replay summary.
func collect(t *testing.T, path string) (*Log, []string, Replay) {
	t.Helper()
	var got []string
	l, rep, err := Open(path, func(payload []byte) bool {
		got = append(got, string(payload))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, rep
}

// Appended payloads replay intact, in file order, across close/reopen.
// That includes an empty payload, whose frame ParseFrame once rejected
// as too short, dropping it and every acknowledged record after it.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"a":1}`, `{"b":2}`, ``, `{"c":3}`}
	for _, p := range want {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != 4 {
		t.Fatalf("Appends = %d, want 4", st.Appends)
	}
	if st.Syncs == 0 || st.Syncs > 4 {
		t.Fatalf("Syncs = %d, want 1..4", st.Syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, rep := collect(t, path)
	defer l2.Close()
	if rep.TruncatedBytes != 0 || rep.Records != 4 {
		t.Fatalf("replay = %+v", rep)
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// A torn final line (SIGKILL mid-append) is dropped and physically
// truncated; appends afterwards extend a valid file.
func TestTornTailTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"to`)
	f.Close()

	l2, got, rep := collect(t, path)
	if rep.TruncatedBytes == 0 || rep.Records != 1 || len(got) != 1 {
		t.Fatalf("torn replay = %+v, %v", rep, got)
	}
	if err := l2.Append([]byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, got3, rep3 := collect(t, path)
	defer l3.Close()
	if rep3.TruncatedBytes != 0 || len(got3) != 2 {
		t.Fatalf("post-truncation replay = %+v, %v", rep3, got3)
	}
}

// A middle line that is not exactly what Frame writes — a CRC
// mismatch, or a matching CRC spelled in a way Frame never spells it —
// or a CRC-valid payload the caller's apply rejects ends the trusted
// prefix.
func TestCorruptAndRejectedLinesEndPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(fmt.Appendf(nil, `{"i":%d}`, i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")

	for _, tc := range []struct {
		name   string
		mangle func(t *testing.T, mid []byte) []byte
	}{
		{"crc mismatch", func(_ *testing.T, mid []byte) []byte {
			mid[len(mid)/2] ^= 0x01
			return mid
		}},
		// ParseFrame once read the CRC with Sscanf("%08x"), which also
		// took upper-case digits (found by FuzzReplay) and leading
		// spaces in place of zeros.
		{"upper-case crc", func(_ *testing.T, mid []byte) []byte {
			return append([]byte(strings.ToUpper(string(mid[:8]))), mid[8:]...)
		}},
		{"space-padded crc", func(t *testing.T, _ []byte) []byte {
			// {"n":14}'s CRC-32C has a leading zero digit.
			f := Frame([]byte(`{"n":14}`))
			if f[0] != '0' {
				t.Fatalf("frame %q has no leading zero", f)
			}
			f[0] = ' '
			return f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mid := tc.mangle(t, []byte(lines[1]))
			if err := os.WriteFile(path, []byte(lines[0]+string(mid)+lines[2]), 0o644); err != nil {
				t.Fatal(err)
			}
			l2, got, rep := collect(t, path)
			l2.Close()
			if len(got) != 1 || rep.TruncatedBytes != int64(len(mid)+len(lines[2])) {
				t.Fatalf("replay kept %v (%+v)", got, rep)
			}
		})
	}

	// Rebuild a clean 3-record file, then reject the second payload
	// from apply: same longest-valid-prefix outcome.
	os.Remove(path)
	l3, _, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l3.Append(fmt.Appendf(nil, `{"i":%d}`, i)); err != nil {
			t.Fatal(err)
		}
	}
	l3.Close()
	n := 0
	l4, rep4, err := Open(path, func(payload []byte) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l4.Close()
	if rep4.Records != 1 || rep4.TruncatedBytes == 0 {
		t.Fatalf("apply-rejection replay = %+v", rep4)
	}
}

// The group-commit bar: 64 concurrent appenders against a 2ms sync
// (fixed, so they provably pile into shared batches regardless of
// machine speed) must be acknowledged with far fewer syncs than appends, every
// record durable and replayable, per-goroutine enqueue order
// preserved in the file.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	l := newWithFile(fixedSyncFile{f, 2 * time.Millisecond})
	const workers, per = 64, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(fmt.Appendf(nil, `{"w":%d,"i":%d}`, w, i)); err != nil {
					t.Errorf("append w%d i%d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Appends != workers*per {
		t.Fatalf("Appends = %d, want %d", st.Appends, workers*per)
	}
	if st.Syncs >= st.Appends/2 {
		t.Fatalf("group commit did not amortize: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	if st.MaxBatchRecords < 2 {
		t.Fatalf("MaxBatchRecords = %d, want >= 2", st.MaxBatchRecords)
	}
	var hist uint64
	for _, n := range st.BatchHist {
		hist += n
	}
	if hist != st.Syncs {
		t.Fatalf("batch histogram holds %d batches for %d syncs", hist, st.Syncs)
	}

	// Replay: all records present, each goroutine's order preserved.
	seen := map[int]int{} // worker -> next expected i
	_, rep, err := Open(path, func(payload []byte) bool {
		var w, i int
		if _, err := fmt.Sscanf(string(payload), `{"w":%d,"i":%d}`, &w, &i); err != nil {
			t.Fatalf("bad payload %q", payload)
		}
		if i != seen[w] {
			t.Fatalf("worker %d record %d arrived out of order (want %d)", w, i, seen[w])
		}
		seen[w]++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != workers*per || rep.TruncatedBytes != 0 {
		t.Fatalf("replay = %+v", rep)
	}
}

// gateFile is a discarding syncFile whose Sync blocks until the test
// releases it. Every Sync announces itself on entered as it begins, and
// each send on release lets exactly one held Sync return, so the test
// decides which records are enqueued while a sync is in flight and the
// batches become exact. open lets every later Sync through.
type gateFile struct {
	entered chan struct{}
	release chan struct{}
	opened  sync.Once
}

// newGateFile sizes entered past any test's sync count, so a Sync the
// test does not wait for (Close's final one, or the extra ones a
// broken batcher issues) never blocks announcing itself.
func newGateFile() *gateFile {
	return &gateFile{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gateFile) Write(p []byte) (int, error) { return len(p), nil }
func (g *gateFile) Sync() error {
	g.entered <- struct{}{}
	<-g.release
	return nil
}
func (g *gateFile) Close() error { return nil }

// open stops holding syncs: the current one and every later one return.
func (g *gateFile) open() { g.opened.Do(func() { close(g.release) }) }

// The exact group-commit property: k records enqueued concurrently
// while one sync is held all land in the next batch, committed by
// exactly one more sync, and none of them is acknowledged before that
// sync returns.
func TestGroupCommitExactBatchDuringHeldSync(t *testing.T) {
	const k = 16
	g := newGateFile()
	l := newWithFile(g)
	defer func() {
		g.open()
		if err := l.Close(); err != nil {
			t.Error(err)
		}
	}()

	first := l.Enqueue([]byte(`{"first":true}`))
	<-g.entered // sync 1 is now held with only the first record
	tickets := make([]Ticket, k)
	var wg sync.WaitGroup
	for i := range tickets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tickets[i] = l.Enqueue(fmt.Appendf(nil, `{"i":%d}`, i))
		}(i)
	}
	wg.Wait()

	g.release <- struct{}{} // sync 1 returns
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	<-g.entered // sync 2 is now held
	// A Ticket's Wait returns exactly when its channel holds the
	// outcome, so an empty channel means Wait is still blocked.
	for i, tk := range tickets {
		if len(tk.ch) != 0 {
			t.Fatalf("record %d acknowledged before its sync returned", i)
		}
	}
	g.open() // sync 2 returns, as would any later one
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Syncs != 2 || st.MaxBatchRecords != k || st.Appends != k+1 {
		t.Fatalf("stats = %+v, want 2 syncs, a %d-record batch and %d appends", st, k, k+1)
	}
}

// failFile fails Sync from the Nth call on, optionally fails every
// Write and Close, to exercise the no-false-acks and joined-error
// contracts.
type failFile struct {
	mu        sync.Mutex
	syncs     int
	failFrom  int   // 1-based sync call index that starts failing (0 = never)
	writeErr  error // returned by every Write when non-nil
	failClose bool
}

var errSyncBroken = errors.New("injected sync failure")
var errCloseBroken = errors.New("injected close failure")

func (f *failFile) Write(p []byte) (int, error) {
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	return len(p), nil
}
func (f *failFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.failFrom > 0 && f.syncs >= f.failFrom {
		return errSyncBroken
	}
	return nil
}
func (f *failFile) Close() error {
	if f.failClose {
		return errCloseBroken
	}
	return nil
}

// A failed sync must fail every waiter in its batch — durability is
// never acknowledged off the back of a failed fsync — and the log
// goes sticky-broken so later appends fail fast.
func TestSyncFailureFailsWholeBatch(t *testing.T) {
	ff := &failFile{failFrom: 1}
	l := newWithFile(ff)
	const n = 16
	// Enqueue the whole batch before any Wait: with the committer
	// blocked behind the enqueues' wake signal, all n records land in
	// one or few batches, every one of which must fail.
	tickets := make([]Ticket, n)
	for i := range tickets {
		tickets[i] = l.Enqueue(fmt.Appendf(nil, `{"i":%d}`, i))
	}
	for i, tk := range tickets {
		if err := tk.Wait(); !errors.Is(err, errSyncBroken) {
			t.Fatalf("waiter %d: %v, want injected sync failure", i, err)
		}
	}
	if err := l.Append([]byte(`{"late":1}`)); !errors.Is(err, errSyncBroken) {
		t.Fatalf("append after sync failure: %v, want fail-fast with the original error", err)
	}
	if st := l.Stats(); st.Appends != 0 {
		t.Fatalf("%d appends acknowledged past a failed sync", st.Appends)
	}
	l.Close()
}

// A failed write (ENOSPC: the disk is full) fails every ticket in its
// batch just as a failed sync does, and nothing is synced behind it:
// the batch's bytes never reached the file, so the log goes
// sticky-broken, later appends fail fast with the same error, and
// Close reports the failure instead of issuing a final sync.
func TestWriteFailureFailsWholeBatch(t *testing.T) {
	ff := &failFile{writeErr: syscall.ENOSPC}
	l := newWithFile(ff)
	tickets := make([]Ticket, 16)
	for i := range tickets {
		tickets[i] = l.Enqueue(fmt.Appendf(nil, `{"i":%d}`, i))
	}
	for i, tk := range tickets {
		if err := tk.Wait(); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("waiter %d: %v, want ENOSPC", i, err)
		}
	}
	late := l.Enqueue([]byte(`{"late":1}`))
	if late.ch != nil || !errors.Is(late.err, syscall.ENOSPC) {
		t.Fatalf("enqueue after write failure: %+v, want a fail-fast ENOSPC", late)
	}
	if st := l.Stats(); st.Appends != 0 || st.Syncs != 0 {
		t.Fatalf("stats after write failure: %+v, want no appends and no syncs", st)
	}
	if err := l.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close() = %v, want the write failure reported", err)
	}
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.syncs != 0 {
		t.Fatalf("%d syncs issued after a failed write", ff.syncs)
	}
}

// Close must report BOTH a failed sync and a failed close, joined —
// the close error used to be discarded.
func TestCloseJoinsSyncAndCloseErrors(t *testing.T) {
	l := newWithFile(&failFile{failFrom: 1, failClose: true})
	err := l.Close()
	if !errors.Is(err, errSyncBroken) {
		t.Fatalf("Close() = %v, want the sync error reported", err)
	}
	if !errors.Is(err, errCloseBroken) {
		t.Fatalf("Close() = %v, want the close error reported too", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close() = %v, want nil no-op", err)
	}
}

// Appends racing Close either complete durably or fail with ErrClosed
// — never hang, never get a false ack.
func TestCloseDrainsPendingBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tickets := make([]Ticket, 8)
	for i := range tickets {
		tickets[i] = l.Enqueue(fmt.Appendf(nil, `{"i":%d}`, i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i, tk := range tickets {
		err := tk.Wait()
		if err == nil {
			acked++
		} else if !errors.Is(err, ErrClosed) {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	_, got, _ := collect(t, path)
	if len(got) != acked {
		t.Fatalf("%d records on disk, %d acknowledged", len(got), acked)
	}
	if err := l.Append([]byte(`{"late":1}`)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

// appendPayload is BenchmarkAppend's record: the size class of a
// typical journal record.
var appendPayload = []byte(`{"t":"submit","id":"j1","seq":1,"spec":{"experiments":["fig10"],"refs":60000}}`)

// BenchmarkAppend measures durable append throughput with 1 and 64
// concurrent appenders on one log. With one appender every append pays
// its own uncontended fsync (the floor group commit cannot beat); with
// 64 the committer batches everything queued behind the in-flight
// sync, so the ratio of the two appends/s figures is the fsync
// amortization factor on the machine at hand.
func BenchmarkAppend(b *testing.B) {
	for _, appenders := range []int{1, 64} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			l, _, err := Open(filepath.Join(b.TempDir(), "log"), nil)
			if err != nil {
				b.Fatal(err)
			}
			var (
				next atomic.Int64
				wg   sync.WaitGroup
			)
			b.ResetTimer()
			for w := 0; w < appenders; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if err := l.Append(appendPayload); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// FuzzReplay feeds Open arbitrary file bytes. Open must not panic; it
// must replay exactly the longest prefix of lines that are each a
// complete frame as Frame writes it, truncate the file to that prefix
// (TruncatedBytes counting the rest), and leave a log that an Append
// extends: after close and reopen the file replays prefix + record.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle: split into newline-terminated lines and keep them
		// while each re-frames to itself.
		var want []string
		var prefix int
		for rest := data; ; {
			i := bytes.IndexByte(rest, '\n')
			if i < 9 || !bytes.Equal(Frame(rest[9:i]), rest[:i+1]) {
				break
			}
			want = append(want, string(rest[9:i]))
			prefix += i + 1
			rest = rest[i+1:]
		}

		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, rep := collect(t, path)
		if !slices.Equal(got, want) || rep.Records != len(want) {
			l.Close()
			t.Fatalf("replayed %q (%+v), want %q", got, rep, want)
		}
		if rep.TruncatedBytes != int64(len(data)-prefix) {
			l.Close()
			t.Fatalf("TruncatedBytes = %d, want %d", rep.TruncatedBytes, len(data)-prefix)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(prefix) {
			l.Close()
			t.Fatalf("file not truncated to the %d-byte prefix: %v, %v", prefix, fi, err)
		}

		const record = `{"fuzz":1}`
		if err := l.Append([]byte(record)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, got2, rep2 := collect(t, path)
		defer l2.Close()
		want = append(want, record)
		if !slices.Equal(got2, want) || rep2.TruncatedBytes != 0 {
			t.Fatalf("after Append replayed %q (%+v), want %q", got2, rep2, want)
		}
	})
}
