package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dice/internal/commitlog"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.journal")
}

// A journal written by one process must replay into the same job
// table in a second one: finished jobs with their outputs, unfinished
// ones flagged for re-run, sequence numbering continuing where it
// left off.
func TestJournalRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 0 || rep.NextSeq != 1 {
		t.Fatalf("fresh journal replayed %d jobs, NextSeq %d", len(rep.Jobs), rep.NextSeq)
	}

	spec1 := JobSpec{Experiments: []string{"fig10"}, Refs: 1000}
	spec2 := JobSpec{Experiments: []string{"table4"}, Workers: 1}
	records := []record{
		{T: "submit", ID: "j1", Seq: 1, Spec: &spec1},
		{T: "finish", ID: "j1", State: StateDone, Output: "line one\nline two\n"},
		{T: "submit", ID: "j2", Seq: 2, Spec: &spec2},
	}
	for _, rec := range records {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rep2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep2.TruncatedBytes != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", rep2.TruncatedBytes)
	}
	if len(rep2.Jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(rep2.Jobs))
	}
	if rep2.NextSeq != 3 {
		t.Fatalf("NextSeq = %d, want 3", rep2.NextSeq)
	}
	j1 := rep2.Jobs[0]
	if !j1.Finished || j1.State != StateDone || j1.Output != "line one\nline two\n" {
		t.Fatalf("j1 replayed wrong: %+v", j1)
	}
	if j1.Spec.Refs != 1000 || j1.Spec.Experiments[0] != "fig10" {
		t.Fatalf("j1 spec replayed wrong: %+v", j1.Spec)
	}
	jb2 := rep2.Jobs[1]
	if jb2.Finished || !jb2.Unfinished() || jb2.State != StateQueued {
		t.Fatalf("j2 must replay as queued and unfinished: %+v", jb2)
	}
}

// A journal in the older three-record format, whose jobs also wrote a
// "start" record when a worker picked them up, replays to the same job
// table as the same history without the start lines, and a daemon
// opened on it re-enqueues exactly the unfinished jobs — the one
// caught mid-run and the one still queued — in seq order.
func TestJournalReplaysParentFormat(t *testing.T) {
	spec := func(refs int) *JobSpec { return &JobSpec{Experiments: []string{"fig4"}, Refs: refs} }
	history := []record{
		{T: "submit", ID: "j1", Seq: 1, Spec: spec(1)},
		{T: "start", ID: "j1"},
		{T: "finish", ID: "j1", State: StateDone, Output: "done-1"},
		{T: "submit", ID: "j2", Seq: 2, Spec: spec(2)},
		{T: "start", ID: "j2"},
		{T: "submit", ID: "j3", Seq: 3, Spec: spec(3)},
	}
	write := func(recs []record) string {
		t.Helper()
		path := tmpJournal(t)
		j, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := j.append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	replay := func(path string) *Replay {
		t.Helper()
		j, rep, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	var twoRecord []record
	for _, rec := range history {
		if rec.T != "start" {
			twoRecord = append(twoRecord, rec)
		}
	}
	parent := write(history)
	got, want := replay(parent), replay(write(twoRecord))
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Fatalf("start lines change the replay:\n%s\n%s", gb, wb)
	}
	if got.NextSeq != 4 || got.TruncatedBytes != 0 || len(got.Jobs) != 3 ||
		!got.Jobs[0].Finished || !got.Jobs[1].Unfinished() || !got.Jobs[2].Unfinished() {
		t.Fatalf("parent-format replay: %s", gb)
	}

	var (
		mu  sync.Mutex
		ran []int
	)
	d, _, err := New(Config{
		JournalPath: parent, JobWorkers: 1,
		execute: func(ctx context.Context, spec JobSpec, emit func(StreamEvent)) (string, error) {
			mu.Lock()
			defer mu.Unlock()
			ran = append(ran, spec.Refs)
			return fmt.Sprintf("rerun-%d", spec.Refs), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	}()
	waitState(t, d, "j2", StateDone)
	waitState(t, d, "j3", StateDone)
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(ran) != "[2 3]" {
		t.Fatalf("re-enqueued jobs ran as refs %v, want [2 3]", ran)
	}
	if st, _ := d.Status("j1"); st.State != StateDone || st.Output != "done-1" {
		t.Fatalf("finished job: %+v", st)
	}
	if s := d.Stats(); s.Replayed != 3 || s.Started != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// A SIGKILL can land mid-append. The torn final line must be dropped
// and truncated away; everything before it replays, and the journal
// accepts new appends afterwards.
func TestJournalTornTail(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiments: []string{"fig4"}}
	if err := j.append(record{T: "submit", ID: "j1", Seq: 1, Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn write: half a record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"t":"fini`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	if len(rep.Jobs) != 1 || rep.Jobs[0].Finished {
		t.Fatalf("replay after torn tail: %+v", rep.Jobs)
	}
	// The tail must be physically gone so appends extend a valid file.
	if err := j2.append(record{T: "finish", ID: "j1", State: StateDone, Output: "ok"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, rep3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.TruncatedBytes != 0 {
		t.Fatalf("journal still torn after truncation: %d bytes", rep3.TruncatedBytes)
	}
	if len(rep3.Jobs) != 1 || !rep3.Jobs[0].Finished || rep3.Jobs[0].Output != "ok" {
		t.Fatalf("post-truncation append lost: %+v", rep3.Jobs)
	}
}

// A CRC mismatch marks the end of the trusted prefix: replay keeps
// everything before it and discards the rest (append-only journals
// cannot have valid data after a corrupt record that the daemon
// should trust).
func TestJournalCorruptLineEndsPrefix(t *testing.T) {
	path := tmpJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiments: []string{"fig4"}}
	for i, rec := range []record{
		{T: "submit", ID: "j1", Seq: 1, Spec: &spec},
		{T: "submit", ID: "j2", Seq: 2, Spec: &spec},
		{T: "submit", ID: "j3", Seq: 3, Spec: &spec},
	} {
		if err := j.append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	j.Close()

	// Corrupt one byte inside the second record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines", len(lines))
	}
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0x01
	corrupted := lines[0] + string(mid) + lines[2]
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rep, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rep.Jobs) != 1 || rep.Jobs[0].ID != "j1" {
		t.Fatalf("replay past a corrupt record: %+v", rep.Jobs)
	}
	if rep.TruncatedBytes == 0 {
		t.Fatal("corrupt suffix not counted as truncated")
	}
	if rep.NextSeq != 2 {
		t.Fatalf("NextSeq = %d, want 2", rep.NextSeq)
	}
}

// Group commit must not change what a journal replays to: the same
// job lifecycles appended by 1 worker and by 64 concurrent workers
// produce byte-identical replayed job tables (sorted by seq). This is
// the append-path analogue of the daemon's SIGKILL-restart smoke.
func TestJournalConcurrencyReplayParity(t *testing.T) {
	const jobs = 64
	run := func(workers int) []ReplayJob {
		t.Helper()
		path := filepath.Join(t.TempDir(), "jobs.journal")
		j, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		// Deal complete job lifecycles (submit, finish) out to the
		// workers; each job's two records stay ordered because one
		// worker owns the whole lifecycle and file order follows
		// enqueue order.
		ids := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range ids {
					id := fmt.Sprintf("j%d", n)
					spec := JobSpec{Experiments: []string{"fig4"}, Refs: n}
					for _, rec := range []record{
						{T: "submit", ID: id, Seq: uint64(n), Spec: &spec},
						{T: "finish", ID: id, State: StateDone, Output: fmt.Sprintf("out-%d", n)},
					} {
						if err := j.append(rec); err != nil {
							t.Errorf("append %s: %v", id, err)
							return
						}
					}
				}
			}()
		}
		for n := 1; n <= jobs; n++ {
			ids <- n
		}
		close(ids)
		wg.Wait()
		if st := j.Stats(); st.Appends != 2*jobs {
			t.Fatalf("workers=%d: %d appends acknowledged, want %d", workers, st.Appends, 2*jobs)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, rep, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TruncatedBytes != 0 {
			t.Fatalf("workers=%d: clean journal reported %d truncated bytes", workers, rep.TruncatedBytes)
		}
		return rep.Jobs
	}

	serial := run(1)
	concurrent := run(64)
	// The replayed tables are seq-sorted, so equality is byte-for-byte.
	sb, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(concurrent)
	if err != nil {
		t.Fatal(err)
	}
	if string(sb) != string(cb) {
		t.Fatalf("replayed job tables diverge between 1 and 64 workers:\n%s\n%s", sb, cb)
	}
	if len(serial) != jobs || !serial[0].Finished {
		t.Fatalf("replayed table wrong: %d jobs, first %+v", len(serial), serial[0])
	}
}

// A nil journal (persistence disabled) must be a safe no-op.
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.append(record{T: "finish", ID: "x", State: StateDone}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzJournalReplay feeds arbitrary record sequences through
// openJournal. Each three-byte group of ops is one record: its type
// (submit, finish, the older format's start, an unknown type, or a
// submit without a spec), its job ID out of four — so IDs repeat and a
// finish can precede its submit — and, for a submit, its seq as an
// offset from base. Replay must not panic, NextSeq must exceed the seq
// of every submit it accepts, and a job must replay unfinished exactly
// when its first submit has no later finish. The seed corpus is in
// testdata/fuzz/FuzzJournalReplay.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, base uint64) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		type want struct {
			seq      uint64
			finished bool
		}
		var (
			file     []byte
			model    = map[string]*want{}
			accepted []uint64
		)
		for i := 0; i+2 < len(ops); i += 3 {
			rec := record{ID: fmt.Sprintf("j%d", ops[i+1]%4)}
			switch ops[i] % 5 {
			case 0, 4:
				rec.T, rec.Seq = "submit", base+uint64(ops[i+2])
				if ops[i]%5 == 0 {
					rec.Spec = &JobSpec{Experiments: []string{"fig4"}}
				}
			case 1:
				rec.T, rec.State, rec.Output = "finish", StateDone, "out"
			case 2:
				rec.T = "start"
			case 3:
				rec.T = "bogus"
			}
			switch {
			case rec.T == "submit" && rec.Spec != nil && rec.Seq != math.MaxUint64:
				accepted = append(accepted, rec.Seq)
				if model[rec.ID] == nil {
					model[rec.ID] = &want{seq: rec.Seq}
				}
			case rec.T == "finish" && model[rec.ID] != nil:
				model[rec.ID].finished = true
			}
			payload, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			file = append(file, commitlog.Frame(payload)...)
		}
		path := filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rep, err := openJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if rep.TruncatedBytes != 0 {
			t.Fatalf("well-framed journal lost %d bytes", rep.TruncatedBytes)
		}
		if rep.NextSeq == 0 {
			t.Fatal("NextSeq wrapped to 0")
		}
		for _, seq := range accepted {
			if rep.NextSeq <= seq {
				t.Fatalf("NextSeq %d does not exceed accepted seq %d", rep.NextSeq, seq)
			}
		}
		if len(rep.Jobs) != len(model) {
			t.Fatalf("replayed %d jobs, model has %d", len(rep.Jobs), len(model))
		}
		for i, rj := range rep.Jobs {
			w := model[rj.ID]
			if w == nil || rj.Seq != w.seq {
				t.Fatalf("replayed job %+v not in the model", rj)
			}
			if rj.Unfinished() != !w.finished {
				t.Fatalf("job %s unfinished = %v, model says finished = %v", rj.ID, rj.Unfinished(), w.finished)
			}
			if i > 0 && rep.Jobs[i-1].Seq > rj.Seq {
				t.Fatalf("replay out of seq order: %d before %d", rep.Jobs[i-1].Seq, rj.Seq)
			}
		}
	})
}
