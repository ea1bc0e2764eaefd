// Package commitlog is the shared crash-safe append-only log under
// the daemon job journal (internal/serve) and the sweep results log
// (internal/dse): one CRC-32C framed JSON record per line, replayed
// to the longest valid prefix with the torn tail truncated away.
//
// The log has one commit discipline, group commit — the same
// amortization DICE applies to cache bandwidth (batch small operations
// into one larger transfer), applied to durability. Appenders do not
// sync the file themselves: they enqueue a framed record and block on
// a commit ticket while a single committer goroutine drains everything
// queued, issues ONE write and ONE fsync for the whole batch, and then
// releases every ticket. N concurrent appenders therefore pay ~1 fsync
// instead of N. An acknowledged append has always been fsynced (the
// ticket resolves only after the Sync covering its record returns),
// and a failed write or sync fails every waiter in its batch — no
// record is ever acknowledged off the back of a failed sync.
//
// File order equals enqueue order, so callers that need record A
// durable-before-B in the file simply enqueue A before B (the
// enqueue itself is cheap and non-blocking; only Wait blocks).
//
// After a write or sync failure (ENOSPC, EIO) the log is broken: the
// kernel may have dropped the unwritten pages, so the tail state on
// disk is unknowable and every later append fails fast with the
// original error rather than pretending durability. Replay on the next
// open recovers the longest valid prefix, exactly as after a crash.
package commitlog

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// crcTable is the Castagnoli table shared by every framed line (the
// same polynomial the compressed-line checksums use).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends issued after Close.
var ErrClosed = errors.New("commitlog: log is closed")

// syncFile is the slice of *os.File the committer needs; tests inject
// failing implementations through newWithFile.
type syncFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Stats are the log's monotone group-commit counters; see METRICS.md
// "Commit-log counters".
type Stats struct {
	// Appends counts records durably acknowledged (ticket resolved nil).
	Appends uint64 `json:"appends"`
	// Syncs counts fsync calls issued. Appends/Syncs is the
	// amortization factor group commit achieved.
	Syncs uint64 `json:"syncs"`
	// BytesWritten counts framed bytes durably written.
	BytesWritten uint64 `json:"bytes_written"`
	// MaxBatchRecords is the largest number of records one sync covered.
	MaxBatchRecords int `json:"max_batch_records"`
	// BatchHist is the committed-batch size distribution: bucket i
	// counts batches of [2^i, 2^(i+1)) records (1, 2-3, 4-7, ... ,
	// 128+ in the last bucket).
	BatchHist [8]uint64 `json:"batch_hist"`
}

// observeBatch folds one committed batch into the counters.
func (s *Stats) observeBatch(records, bytes int) {
	s.Appends += uint64(records)
	s.Syncs++
	s.BytesWritten += uint64(bytes)
	if records > s.MaxBatchRecords {
		s.MaxBatchRecords = records
	}
	b := 0
	for n := records; n > 1 && b < len(s.BatchHist)-1; n >>= 1 {
		b++
	}
	s.BatchHist[b]++
}

// Ticket is one enqueued record's claim on a future commit. Wait
// blocks until the sync covering the record returns and reports its
// outcome. The zero Ticket is resolved-nil (used by no-op appends on
// nil logs).
type Ticket struct {
	ch  chan error
	err error
}

// Wait blocks until the record's commit batch has been synced,
// returning nil only if the record is durable on disk.
func (t Ticket) Wait() error {
	if t.ch == nil {
		return t.err
	}
	return <-t.ch
}

// Resolved returns an already-resolved Ticket carrying err. Callers
// layering their own encoding above Enqueue use it to surface a
// marshal failure through the same Ticket path as a real append.
func Resolved(err error) Ticket { return Ticket{err: err} }

// Log is the append handle. Safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	f       syncFile
	pending []byte       // framed records awaiting the next commit
	spare   []byte       // recycled batch buffer
	waiters []chan error // one per pending record, enqueue order
	records int
	closed  bool
	broken  error // sticky first sync/write failure
	stats   Stats

	wake chan struct{} // buffered(1): pending work for the committer
	quit chan struct{}
	done chan struct{} // committer exited
}

// Replay summarizes what Open recovered from an existing file.
type Replay struct {
	// Records counts valid framed lines replayed.
	Records int
	// TruncatedBytes counts bytes dropped as a torn or corrupt tail
	// (0 for a cleanly closed log).
	TruncatedBytes int64
}

// Open opens (creating if absent) the log at path, replays its valid
// prefix — calling apply once per CRC-valid payload, in file order —
// truncates any torn tail, and returns the handle positioned for
// appending. apply returns false to reject a payload it cannot
// decode: the line and everything after it are treated as the torn
// tail, mirroring a CRC mismatch. A nil apply accepts every valid
// frame.
//
// The log group-commits with one fixed discipline: the committer
// syncs as soon as it is free, so a lone appender pays one
// uncontended fsync and a batch is whatever arrived while the
// previous sync was in flight.
func Open(path string, apply func(payload []byte) bool) (*Log, Replay, error) {
	return open(path, apply, 0)
}

// OpenForTest is Open with every fsync padded to take at least
// syncFloor, for tests that assert batching, not production use:
// where fsync is nearly free (tmpfs, a write-back cache) concurrent
// appenders rarely overlap a sync in flight, so there would be
// nothing to batch.
func OpenForTest(path string, apply func(payload []byte) bool, syncFloor time.Duration) (*Log, Replay, error) {
	return open(path, apply, syncFloor)
}

// open is Open and OpenForTest: a positive syncFloor pads every fsync.
func open(path string, apply func(payload []byte) bool, syncFloor time.Duration) (*Log, Replay, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Replay{}, fmt.Errorf("commitlog: %w", err)
	}
	rep, validLen, err := scan(f, apply)
	if err != nil {
		f.Close()
		return nil, Replay{}, err
	}
	if fi, serr := f.Stat(); serr == nil && fi.Size() > validLen {
		rep.TruncatedBytes = fi.Size() - validLen
		if terr := f.Truncate(validLen); terr != nil {
			f.Close()
			return nil, Replay{}, fmt.Errorf("commitlog: truncating torn tail: %w", terr)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, Replay{}, fmt.Errorf("commitlog: %w", err)
	}
	if syncFloor > 0 {
		return newWithFile(fixedSyncFile{f, syncFloor}), rep, nil
	}
	return newWithFile(f), rep, nil
}

// fixedSyncFile pads every Sync of f to take at least floor.
type fixedSyncFile struct {
	*os.File
	floor time.Duration
}

// Sync fsyncs the file, then sleeps out the rest of the floor.
func (f fixedSyncFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	time.Sleep(f.floor - time.Since(start))
	return err
}

// newWithFile builds a running Log over an already-positioned file;
// the exported path in is Open, tests inject failing files here.
func newWithFile(f syncFile) *Log {
	l := &Log{
		f:    f,
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go l.commitLoop()
	return l
}

// scan reads the file from the start, returning the replay summary
// and the byte length of the valid prefix. Scanning stops — without
// error — at the first line that is torn (no trailing newline),
// CRC-mismatched, or rejected by apply.
func scan(f *os.File, apply func([]byte) bool) (Replay, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return Replay{}, 0, fmt.Errorf("commitlog: %w", err)
	}
	var (
		rep      Replay
		validLen int64
		r        = bufio.NewReaderSize(f, 1<<16)
	)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				break // a partial trailing line is a torn tail — drop it
			}
			return Replay{}, 0, fmt.Errorf("commitlog: %w", err)
		}
		payload, ok := ParseFrame(line[:len(line)-1])
		if !ok {
			break
		}
		if apply != nil && !apply(payload) {
			break
		}
		validLen += int64(len(line))
		rep.Records++
	}
	return rep, validLen, nil
}

// Frame wraps a JSON payload in the shared "crc8hex space json\n"
// line framing (CRC-32C over the payload) used by the journal, the
// results log, and the job stream wire format.
func Frame(payload []byte) []byte {
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, crcTable))
	line = append(line, payload...)
	return append(line, '\n')
}

// ParseFrame validates one framed line (without its trailing newline)
// and returns the payload; ok is false unless the line is exactly what
// Frame writes for that payload (eight lowercase hex digits of its
// CRC-32C, a space, the payload) — the reader's signal that the
// trusted prefix ends here.
func ParseFrame(line []byte) ([]byte, bool) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, false
	}
	var want uint32
	for _, c := range line[:8] {
		switch {
		case '0' <= c && c <= '9':
			want = want<<4 | uint32(c-'0')
		case 'a' <= c && c <= 'f':
			want = want<<4 | uint32(c-'a'+10)
		default:
			return nil, false
		}
	}
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, false
	}
	return payload, true
}

// Append frames payload, commits it with whatever batch-mates are
// queued, and returns once the covering fsync has succeeded — the
// blocking form of Enqueue followed by Wait.
func (l *Log) Append(payload []byte) error {
	return l.Enqueue(payload).Wait()
}

// Enqueue frames payload and stakes its place in file order, returning
// a Ticket that resolves when the batch containing it has been synced.
// Enqueue itself never blocks on I/O, so callers may enqueue under
// locks that must not wait out an fsync and Wait after releasing them.
func (l *Log) Enqueue(payload []byte) Ticket {
	line := Frame(payload)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Ticket{err: ErrClosed}
	}
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return Ticket{err: err}
	}
	l.pending = append(l.pending, line...)
	l.records++
	ch := make(chan error, 1)
	l.waiters = append(l.waiters, ch)
	l.mu.Unlock()

	select {
	case l.wake <- struct{}{}:
	default:
	}
	return Ticket{ch: ch}
}

// commitLoop is the committer goroutine: it sleeps until records are
// pending, then commits the whole queue with one write and one fsync.
func (l *Log) commitLoop() {
	defer close(l.done)
	for {
		select {
		case <-l.wake:
		case <-l.quit:
			l.commit() // drain whatever Close raced in
			return
		}
		l.commit()
	}
}

// commit takes the pending batch, writes and syncs it, and resolves
// every ticket in it with the outcome. A write or sync failure marks
// the log broken and fails the entire batch — durability is never
// acknowledged past a failed sync.
func (l *Log) commit() {
	l.mu.Lock()
	if l.records == 0 {
		l.mu.Unlock()
		return
	}
	batch, waiters, n := l.pending, l.waiters, l.records
	l.pending, l.spare = l.spare[:0], batch
	l.waiters = nil
	l.records = 0
	broken := l.broken
	l.mu.Unlock()

	err := broken
	if err == nil {
		if _, werr := l.f.Write(batch); werr != nil {
			err = fmt.Errorf("commitlog: %w", werr)
		} else if serr := l.f.Sync(); serr != nil {
			err = fmt.Errorf("commitlog: sync: %w", serr)
		}
	}
	l.mu.Lock()
	if err != nil {
		if l.broken == nil {
			l.broken = err
		}
	} else {
		l.stats.observeBatch(n, len(batch))
	}
	l.mu.Unlock()
	for _, ch := range waiters {
		ch <- err
	}
}

// Stats snapshots the group-commit counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close drains the pending batch, stops the committer, syncs, and
// closes the file. Both the sync and the close error are reported
// (joined) — a failed sync no longer swallows the close outcome. A
// log already broken by a failed write or sync is not synced again:
// Close reports that sticky failure in place of the sync's outcome.
// Closing twice is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	close(l.quit)
	<-l.done
	// The committer has exited, so the drain's outcome is in l.broken.
	l.mu.Lock()
	syncErr := l.broken
	l.mu.Unlock()
	if syncErr == nil {
		// The final defensive sync; the committer already synced every
		// acknowledged record.
		if err := l.f.Sync(); err != nil {
			syncErr = fmt.Errorf("commitlog: sync: %w", err)
		}
	}
	closeErr := l.f.Close()
	if closeErr != nil {
		closeErr = fmt.Errorf("commitlog: close: %w", closeErr)
	}
	return errors.Join(syncErr, closeErr)
}
