// Package dram models the timing of a banked DRAM device — channels,
// banks, row buffers, command timing (tCAS/tRCD/tRP/tRAS), data-bus burst
// occupancy and finite read/write queues. One model instance serves as the
// stacked-DRAM array behind the L4 cache (HBM-like: wide bus, many
// channels) and another as the DDR main memory (narrow bus, one channel),
// reproducing the 8x bandwidth asymmetry the paper's configuration
// establishes (Table 2).
//
// The model is a resource-reservation simulator: every access reserves its
// bank and channel bus at the earliest cycle both are free, pays the
// row-buffer hit/miss/conflict latency, and returns the CPU cycle at which
// the full burst has transferred. Callers provide the clock; the model
// keeps no global time, so out-of-order issue from multiple cores works
// naturally. Refresh is not modeled; it costs both configurations the same
// small utilization fraction and cancels out of all normalized results.
package dram

import (
	"fmt"

	"dice/internal/obs"
)

// Config describes one DRAM device. All latencies are in CPU cycles.
type Config struct {
	Channels      int // independent channels, each with its own bus
	Banks         int // banks per channel
	RowBytes      int // row-buffer size per bank
	CyclesPerBeat int // CPU cycles per bus beat (DDR at half CPU clock: 2)
	BeatBytes     int // bytes per bus beat (bus width / 8)
	TCAS          int // column access (read latency from open row)
	TRCD          int // row activate to column
	TRP           int // precharge
	TRAS          int // min activate-to-precharge
	QueueDepth    int // in-flight requests per channel before stalling
	// InterleaveBytes is the channel-interleave granularity for Decode.
	// The DRAM cache interleaves at row granularity so neighboring sets
	// share a row buffer; main memory interleaves at line granularity.
	InterleaveBytes int
	// BatchFactor approximates FR-FCFS scheduling: a real controller
	// reorders its queue to serve several same-row requests per row
	// activation, so when rows of one bank are accessed alternately only
	// ~1/BatchFactor of the switches pay the full precharge+activate+tRAS
	// row cycle; the rest are charged as activate+column (they ride an
	// already-scheduled row turn). This model serves requests in arrival
	// order, so the batching is applied statistically. 0 means 4.
	BatchFactor int
	// Name labels this device in trace events (e.g. "l4", "ddr").
	Name string
	// Trace, when non-nil, receives row-buffer-conflict-run events
	// (obs.CompDRAM). Observability only: enabling it never changes
	// any timing outcome.
	Trace *obs.Tracer
}

// HBMConfig returns the stacked-DRAM configuration of Table 2: 4 channels,
// 128-bit bus at DDR-1.6GHz under a 3.2GHz core clock (16B per 2 CPU
// cycles per channel ≈ 100GB/s aggregate), 16 banks, 2KB rows,
// 44-44-44-112 timing.
func HBMConfig() Config {
	return Config{
		Channels: 4, Banks: 16, RowBytes: 2048,
		CyclesPerBeat: 2, BeatBytes: 16,
		TCAS: 44, TRCD: 44, TRP: 44, TRAS: 112,
		QueueDepth:      96,
		InterleaveBytes: 2048,
	}
}

// DDRConfig returns the main-memory configuration of Table 2: 1 channel,
// 64-bit bus (8B per 2 CPU cycles = 12.8GB/s), 16 banks, identical
// latencies to the stacked DRAM (per stacked-memory specifications).
func DDRConfig() Config {
	return Config{
		Channels: 1, Banks: 16, RowBytes: 2048,
		CyclesPerBeat: 2, BeatBytes: 8,
		TCAS: 44, TRCD: 44, TRP: 44, TRAS: 112,
		QueueDepth:      96,
		InterleaveBytes: 64,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram: Channels must be positive, got %d", c.Channels)
	case c.Banks <= 0:
		return fmt.Errorf("dram: Banks must be positive, got %d", c.Banks)
	case c.RowBytes <= 0:
		return fmt.Errorf("dram: RowBytes must be positive, got %d", c.RowBytes)
	case c.BeatBytes <= 0 || c.CyclesPerBeat <= 0:
		return fmt.Errorf("dram: bus geometry must be positive")
	case c.QueueDepth <= 0:
		return fmt.Errorf("dram: QueueDepth must be positive, got %d", c.QueueDepth)
	case c.InterleaveBytes <= 0:
		return fmt.Errorf("dram: InterleaveBytes must be positive")
	}
	return nil
}

// Loc addresses one row of one bank on one channel.
type Loc struct {
	// Channel indexes the device's channels.
	Channel int
	// Bank indexes the channel's banks.
	Bank int
	// Row is the row within the bank.
	Row uint64
}

// Stats aggregates device activity. Byte and cycle counters feed the
// energy model; row-buffer counters diagnose locality. Every counter
// is charged when Access is called, for the whole access, and covers
// the accesses issued since the last ResetStats (the simulator resets
// at its warm-up boundary).
type Stats struct {
	// Reads counts read accesses.
	Reads uint64
	// Writes counts write accesses.
	Writes uint64
	// RowHits counts accesses to the bank's open row.
	RowHits      uint64
	RowMisses    uint64 // closed-row activates
	RowConflicts uint64 // row switches (see RowBatched)
	RowBatched   uint64 // conflicts absorbed by FR-FCFS batching
	// BytesRead is the burst bytes of the read accesses.
	BytesRead uint64
	// BytesWritten is the burst bytes of the write accesses.
	BytesWritten uint64
	// BusBusyCycles is the data-bus occupancy of the counted
	// accesses' bursts, summed over channels. A burst is counted whole
	// when its access is issued, so the window these cycles occupy runs
	// from the reset to the latest completion Access returned — which
	// can fall after a simulation's measured end while transfers drain.
	BusBusyCycles uint64
	// QueueStallCycles sums, over the counted accesses, the cycles each
	// waited for a free slot in its channel's full request queue
	// before issuing.
	QueueStallCycles uint64
}

// bank tracks one bank's row-buffer and timing state.
type bank struct {
	openRow      uint64
	rowOpen      bool
	nextFree     uint64 // earliest cycle a new command may start
	lastActivate uint64 // for tRAS
	confRun      uint32 // consecutive conflicts, for FR-FCFS batching
}

// span is one reserved data-bus transfer window.
type span struct{ start, end uint64 }

// channel tracks one channel's bus and queue occupancy.
type channel struct {
	banks []bank
	// busy[lo:hi] holds the channel bus's most recent reservations (at
	// most busWindow of them), sorted by start time. Transfers are
	// scheduled into the earliest idle gap at or after their data-ready
	// time (a data bus serves whatever is ready, not arrival order).
	// Reservations are disjoint and durations are positive, so the
	// windows are sorted by end time too — which is what lets
	// reserveBus skip the already-elapsed prefix with a binary search
	// instead of a rescan. The buffer holds two windows so the live one
	// can slide right (an append or a suffix shift past a dropped
	// oldest span is lo++) and is compacted to the front only when it
	// reaches the end of the buffer.
	busy   [2 * busWindow]span
	lo, hi int
	// queue holds completion times of in-flight requests, a ring used to
	// model the finite read/write queue of Table 2. The backing arrays
	// are padded to a power of two so every wraparound is a mask
	// (ringMask) instead of a divide; fullness is still judged against
	// the configured QueueDepth, never the padded capacity.
	queue    []uint64
	head     int
	count    int
	ringMask int
}

// busWindow bounds the per-channel reservation history.
const busWindow = 64

// compact moves the live window to the front of the buffer, making
// room to grow at its newest end.
func (ch *channel) compact() {
	ch.hi = copy(ch.busy[:], ch.busy[ch.lo:ch.hi])
	ch.lo = 0
}

// busPush appends a span after every existing reservation, dropping the
// oldest when the window is full.
func (ch *channel) busPush(b span) {
	if ch.hi-ch.lo == busWindow {
		ch.lo++
	}
	if ch.hi == len(ch.busy) {
		ch.compact()
	}
	ch.busy[ch.hi] = b
	ch.hi++
}

// busInsert places a span before window position i (0 <= i < busyLen),
// keeping start order. When the window is full the oldest reservation
// is dropped — and an insert at position 0 of a full window drops the
// new span itself, reproducing the bounded-history semantics of the
// original slice implementation (insert, then trim to the newest
// busWindow entries). A full window shifts whichever side of the
// insert point is shorter: the prefix left over the dropped oldest
// span, or the suffix right with the window start advancing past it.
func (ch *channel) busInsert(i int, b span) {
	n := ch.hi - ch.lo
	if n == busWindow {
		if i == 0 {
			return // trimmed away immediately: oldest of 65 is the new span
		}
		if i-1 <= n-i {
			w := ch.busy[ch.lo : ch.lo+i]
			copy(w, w[1:])
			w[i-1] = b
			return
		}
		ch.lo++
		i--
	}
	if ch.hi == len(ch.busy) {
		ch.compact()
	}
	w := ch.busy[ch.lo+i : ch.hi+1]
	copy(w[1:], w)
	w[0] = b
	ch.hi++
}

// reserveBus books the first idle window of length dur at or after
// earliest and returns its start time.
//
// Two fast paths cover almost every call: a transfer that becomes ready
// after every recorded reservation appends in O(1), and one that lands
// amid the reserved history binary-searches the first window still
// relevant to it (windows are sorted by end time) instead of rescanning
// the elapsed prefix. Only the walk across still-overlapping windows,
// bounded by busWindow, remains. It is not short: at 60000 refs/core a
// call that does not append walks 2.7–3.3 windows on average on lbm,
// Gems and milc (baseline) and mix1 (DICE), 8.1 on pr_twi (DICE) and
// 10.8 on libq (baseline), and its insert lands anywhere in the
// history — a median 6–18 spans back from the newest end, the 90th
// percentile 27–55, and 0.4–6.7% of inserts at the oldest retained
// span.
func (ch *channel) reserveBus(earliest, dur uint64) uint64 {
	w := ch.busy[ch.lo:ch.hi]
	n := len(w)
	if n == 0 || earliest >= w[n-1].end {
		ch.busPush(span{earliest, earliest + dur})
		return earliest
	}
	// First window with end > earliest; everything before it has fully
	// elapsed and cannot constrain this transfer.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w[mid].end <= earliest {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s := earliest
	for i := lo; i < n; i++ {
		if w[i].start >= s+dur {
			ch.busInsert(i, span{s, s + dur})
			return s
		}
		s = w[i].end
	}
	ch.busPush(span{s, s + dur})
	return s
}

// popHead removes the queue's FIFO head.
func (ch *channel) popHead() {
	ch.head = (ch.head + 1) & ch.ringMask
	ch.count--
}

// queued returns the ring's in-flight completion times as its two
// contiguous segments, oldest first.
func (ch *channel) queued() (a, b []uint64) {
	end := ch.head + ch.count
	if end <= len(ch.queue) {
		return ch.queue[ch.head:end], nil
	}
	return ch.queue[ch.head:], ch.queue[:end-len(ch.queue)]
}

// inFlight counts queued requests still incomplete at cycle now, a
// branch-per-entry scan over the ring's two contiguous segments (at
// most QueueDepth entries; callers query per prefetch probe and per
// metrics epoch, not per access).
func (ch *channel) inFlight(now uint64) int {
	n := 0
	a, b := ch.queued()
	for _, t := range a {
		if t > now {
			n++
		}
	}
	for _, t := range b {
		if t > now {
			n++
		}
	}
	return n
}

// Memory is one DRAM device instance.
type Memory struct {
	cfg      Config
	channels []channel
	stats    Stats
	// Decode fast path: when every geometry term is a power of two
	// (true for all shipped configs), the address split becomes three
	// shift/mask pairs instead of four hardware divides. decodeShifts
	// is false for exotic geometries, which fall back to the divides.
	decodeShifts bool
	ivShift      uint   // log2(InterleaveBytes)
	chMask       uint64 // Channels-1
	chShift      uint   // log2(Channels)
	rowChunkBits uint   // log2(chunksPerRow)
	bankMask     uint64 // Banks-1
	bankShift    uint   // log2(Banks)
	// Per-access constants resolved once: the FR-FCFS batch factor with
	// its default applied, and log2(BeatBytes) when the bus width is a
	// power of two (beatShifts), so BurstCycles shifts instead of
	// dividing.
	batch      uint32
	beatShifts bool
	beatShift  uint
}

// log2OfPow2 returns (log2(n), true) when n is a positive power of two.
func log2OfPow2(n uint64) (uint, bool) {
	if n == 0 || n&(n-1) != 0 {
		return 0, false
	}
	var s uint
	for n > 1 {
		n >>= 1
		s++
	}
	return s, true
}

// New builds a Memory from cfg. It panics on invalid configuration:
// configurations are static experiment inputs, not runtime data.
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{cfg: cfg, channels: make([]channel, cfg.Channels), batch: 4}
	if cfg.BatchFactor != 0 {
		m.batch = uint32(cfg.BatchFactor)
	}
	m.beatShift, m.beatShifts = log2OfPow2(uint64(cfg.BeatBytes))
	ringCap := 1
	for ringCap < cfg.QueueDepth {
		ringCap <<= 1
	}
	for i := range m.channels {
		m.channels[i].banks = make([]bank, cfg.Banks)
		m.channels[i].queue = make([]uint64, ringCap)
		m.channels[i].ringMask = ringCap - 1
	}
	chunksPerRow := uint64(cfg.RowBytes / cfg.InterleaveBytes)
	if chunksPerRow == 0 {
		chunksPerRow = 1
	}
	ivs, ok1 := log2OfPow2(uint64(cfg.InterleaveBytes))
	chs, ok2 := log2OfPow2(uint64(cfg.Channels))
	rcs, ok3 := log2OfPow2(chunksPerRow)
	bks, ok4 := log2OfPow2(uint64(cfg.Banks))
	if ok1 && ok2 && ok3 && ok4 {
		m.decodeShifts = true
		m.ivShift = ivs
		m.chMask = uint64(cfg.Channels) - 1
		m.chShift = chs
		m.rowChunkBits = rcs
		m.bankMask = uint64(cfg.Banks) - 1
		m.bankShift = bks
	}
	return m
}

// Config returns the device configuration.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns a copy of the accumulated statistics.
func (m *Memory) Stats() Stats { return m.stats }

// ResetStats zeroes the statistics (timing state is preserved).
func (m *Memory) ResetStats() { m.stats = Stats{} }

// Decode maps a physical byte address to a device location using the
// configured interleave granularity: consecutive interleave chunks rotate
// across channels, then across banks, with the row advancing last. With
// row-granularity interleave, addresses within one row share a bank and
// row — the property the DRAM cache relies on for BAI's neighbor sets.
func (m *Memory) Decode(addr uint64) Loc {
	if m.decodeShifts {
		chunk := addr >> m.ivShift
		rowChunk := (chunk >> m.chShift) >> m.rowChunkBits
		return Loc{
			Channel: int(chunk & m.chMask),
			Bank:    int(rowChunk & m.bankMask),
			Row:     rowChunk >> m.bankShift,
		}
	}
	chunk := addr / uint64(m.cfg.InterleaveBytes)
	ch := int(chunk % uint64(m.cfg.Channels))
	rest := chunk / uint64(m.cfg.Channels)
	chunksPerRow := uint64(m.cfg.RowBytes / m.cfg.InterleaveBytes)
	if chunksPerRow == 0 {
		chunksPerRow = 1
	}
	rowChunk := rest / chunksPerRow
	b := int(rowChunk % uint64(m.cfg.Banks))
	row := rowChunk / uint64(m.cfg.Banks)
	return Loc{Channel: ch, Bank: b, Row: row}
}

// BurstCycles returns the bus occupancy for transferring n bytes.
func (m *Memory) BurstCycles(n int) uint64 {
	var beats int
	if m.beatShifts {
		beats = (n + m.cfg.BeatBytes - 1) >> m.beatShift
	} else {
		beats = (n + m.cfg.BeatBytes - 1) / m.cfg.BeatBytes
	}
	return uint64(beats * m.cfg.CyclesPerBeat)
}

// Access issues a request at CPU cycle now and returns the cycle at which
// the last beat of the burst has transferred. Writes reserve the same
// resources as reads (the model does not give writes a latency advantage;
// the memory controller above decides whether to wait on them).
func (m *Memory) Access(now uint64, loc Loc, write bool, burstBytes int) uint64 {
	ch := &m.channels[loc.Channel]
	bk := &ch.banks[loc.Bank]

	start := now
	// Finite queue: if all slots hold requests that complete after now,
	// the new request cannot enter the channel until the earliest one
	// drains.
	if ch.count == m.cfg.QueueDepth {
		oldest := ch.queue[ch.head]
		if oldest > start {
			m.stats.QueueStallCycles += oldest - start
			start = oldest
		}
		ch.popHead()
	} else {
		// Drain any completed entries so the ring reflects in-flight work.
		for ch.count > 0 && ch.queue[ch.head] <= start {
			ch.popHead()
		}
	}

	cmdStart := max64(start, bk.nextFree)
	var coreLat uint64
	switch {
	case bk.rowOpen && bk.openRow == loc.Row:
		m.stats.RowHits++
		coreLat = uint64(m.cfg.TCAS)
	case !bk.rowOpen:
		m.stats.RowMisses++
		coreLat = uint64(m.cfg.TRCD + m.cfg.TCAS)
		bk.lastActivate = cmdStart
	default:
		m.stats.RowConflicts++
		bk.confRun++
		// The Enabled guard keeps the disabled path free of the varargs
		// boxing Emitf's own guard cannot avoid (conflict runs are
		// common enough for the allocation to show in profiles).
		if bk.confRun >= TraceConflictRun && bk.confRun%TraceConflictRun == 0 &&
			m.cfg.Trace.Enabled(obs.CompDRAM) {
			m.cfg.Trace.Emitf(cmdStart, obs.CompDRAM, "row-conflict-run",
				"%s ch%d bank%d: %d row switches on this bank (latest row %d)",
				m.cfg.Name, loc.Channel, loc.Bank, bk.confRun, loc.Row)
		}
		if bk.confRun%m.batch != 0 {
			// FR-FCFS batching approximation: this switch is assumed to
			// have been grouped with other requests of its row, so it
			// pays activate+column but no serialized precharge/tRAS.
			m.stats.RowBatched++
			coreLat = uint64(m.cfg.TRCD + m.cfg.TCAS)
			bk.lastActivate = cmdStart
		} else {
			// Precharge may not start before tRAS has elapsed since the
			// activate.
			preStart := max64(cmdStart, bk.lastActivate+uint64(m.cfg.TRAS))
			coreLat = (preStart - cmdStart) + uint64(m.cfg.TRP+m.cfg.TRCD+m.cfg.TCAS)
			bk.lastActivate = preStart + uint64(m.cfg.TRP)
		}
	}
	bk.rowOpen = true
	bk.openRow = loc.Row

	dataReady := cmdStart + coreLat
	burst := m.BurstCycles(burstBytes)
	busStart := ch.reserveBus(dataReady, burst)
	done := busStart + burst
	// Column commands pipeline on an open row: the bank can accept the
	// next command once this one's column/burst slot frees, not after the
	// full access latency (tCAS overlaps across back-to-back row hits).
	colSlotFree := dataReady - uint64(m.cfg.TCAS) + burst
	bk.nextFree = max64(cmdStart+1, colSlotFree)
	m.stats.BusBusyCycles += burst

	// Record in-flight completion in the queue ring.
	tail := (ch.head + ch.count) & ch.ringMask
	ch.queue[tail] = done
	ch.count++

	if write {
		m.stats.Writes++
		m.stats.BytesWritten += uint64(burstBytes)
	} else {
		m.stats.Reads++
		m.stats.BytesRead += uint64(burstBytes)
	}
	return done
}

// InFlight returns how many requests are queued on loc's channel and
// still incomplete at cycle now. Memory controllers drop or defer
// low-priority traffic (prefetches) under queue pressure; callers use
// this to model that throttle. It scans the channel's queued
// completions (see channel.inFlight).
func (m *Memory) InFlight(now uint64, loc Loc) int {
	return m.channels[loc.Channel].inFlight(now)
}

// TraceConflictRun is the per-bank row-switch count threshold at which
// an obs.CompDRAM "row-conflict-run" trace event fires (and again at
// every multiple, so a pathological bank stays visible without
// flooding the trace with one line per row switch).
const TraceConflictRun = 16

// InFlightTotal returns how many requests are queued across every
// channel and still incomplete at cycle now. Read-only: a queue-depth
// gauge the epoch metrics recorder calls once per epoch, one queue scan
// per channel.
func (m *Memory) InFlightTotal(now uint64) int {
	n := 0
	for c := range m.channels {
		n += m.channels[c].inFlight(now)
	}
	return n
}

// AccessAddr is Access with address decoding.
func (m *Memory) AccessAddr(now uint64, addr uint64, write bool, burstBytes int) uint64 {
	return m.Access(now, m.Decode(addr), write, burstBytes)
}

// NextBusFree returns the cycle by which every current bus reservation
// on loc's channel has drained — the channel's next bus-free epoch,
// equal to the largest completion cycle Access has returned for the
// channel (0 before any access). The bus window is kept sorted by both
// start and end, so this is the last span's end, O(1). Event
// schedulers use it (with NextCompletion) as a channel ready-time: no
// new request on the channel can finish a burst before it.
func (m *Memory) NextBusFree(loc Loc) uint64 {
	ch := &m.channels[loc.Channel]
	if ch.hi == ch.lo {
		return 0
	}
	return ch.busy[ch.hi-1].end
}

// NextCompletion returns the earliest completion cycle among requests
// currently queued on loc's channel — the channel's next in-flight-
// completion epoch, found by a scan of the queue (completions are not
// FIFO-ordered: the bus fills gaps, so a later request can finish
// first). ok is false when the queue is empty (no epoch pending). Event
// schedulers use it as the wakeup time at which queue-full stalls can
// unblock.
func (m *Memory) NextCompletion(loc Loc) (done uint64, ok bool) {
	a, b := m.channels[loc.Channel].queued()
	if len(a) == 0 {
		return 0, false
	}
	done = a[0]
	for _, t := range a {
		done = min(done, t)
	}
	for _, t := range b {
		done = min(done, t)
	}
	return done, true
}

// PeakBandwidth returns the aggregate peak bus bandwidth in bytes per CPU
// cycle, used for reporting and sanity checks.
func (m *Memory) PeakBandwidth() float64 {
	return float64(m.cfg.Channels*m.cfg.BeatBytes) / float64(m.cfg.CyclesPerBeat)
}

// Utilization returns the fraction of total bus cycles busy over an
// elapsed window of cycles.
func (m *Memory) Utilization(elapsed uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	total := elapsed * uint64(m.cfg.Channels)
	return float64(m.stats.BusBusyCycles) / float64(total)
}

// Activates returns the number of row activations (for the energy model).
func (s Stats) Activates() uint64 { return s.RowMisses + s.RowConflicts }

// Accesses returns total reads+writes.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
