package dram

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// A synthetic traffic suite for one HBM channel, the kind of validation
// Babaie et al. run on their DRAM cache model (PAPERS.md): a generator
// feeds sequential, random and mixed row patterns at several
// read/write ratios and offered loads, and the checks pin what the
// model's timing guarantees today — the unloaded latency of each row
// outcome, bank-parallel throughput, and exactly the peak bandwidth
// when traffic is offered at the peak rate.

// rowPattern picks the row stream a traffic case sends.
type rowPattern int

const (
	// seqRows walks lines in address order: 32 64-byte lines per 2 KiB
	// row, rows rotating across the banks, so nearly every access is a
	// row hit.
	seqRows rowPattern = iota
	// randomRows sends every access to a random bank and row, so nearly
	// every access switches its bank's row.
	randomRows
	// mixedRows repeats the previous location half the time and goes to
	// a random one otherwise.
	mixedRows
)

func (p rowPattern) String() string {
	return [...]string{"sequential", "random", "mixed"}[p]
}

// trafficLines is the 64-byte line each access of the suite moves.
const trafficLines = 64

// transfer is one access's observed timing: its arrival, its completion,
// and the row outcome the device charged it.
type transfer struct {
	arrive, done uint64
	outcome      rowOutcome
}

// rowOutcome classifies an access by the row-buffer counter it moved.
type rowOutcome int

const (
	rowHit      rowOutcome = iota // open row: TCAS
	rowMiss                       // closed row: TRCD+TCAS
	rowBatched                    // FR-FCFS-batched switch: TRCD+TCAS
	rowConflict                   // full switch: TRP+TRCD+TCAS
)

// genTraffic sends n 64-byte accesses of pattern p to channel 0 of a
// fresh HBM device, one every interval cycles, writePct of every 100 of
// them writes, spread over the first banks banks. It returns the device
// and every access's timing in arrival order.
func genTraffic(p rowPattern, n, writePct int, interval uint64, banks int, seed uint64) (*Memory, []transfer) {
	m := New(HBMConfig())
	rng := rand.New(rand.NewPCG(seed, uint64(p)))
	out := make([]transfer, n)
	loc := Loc{}
	for i := range out {
		switch p {
		case seqRows:
			r := uint64(i / (m.cfg.RowBytes / trafficLines))
			loc = Loc{Bank: int(r % uint64(banks)), Row: r / uint64(banks)}
		case randomRows:
			loc = Loc{Bank: rng.IntN(banks), Row: rng.Uint64N(1 << 14)}
		case mixedRows:
			if i == 0 || rng.IntN(2) == 0 {
				loc = Loc{Bank: rng.IntN(banks), Row: rng.Uint64N(1 << 14)}
			}
		}
		before := m.Stats()
		now := uint64(i) * interval
		done := m.Access(now, loc, rng.IntN(100) < writePct, trafficLines)
		after := m.Stats()
		o := rowHit
		switch {
		case after.RowMisses > before.RowMisses:
			o = rowMiss
		case after.RowBatched > before.RowBatched:
			o = rowBatched
		case after.RowConflicts > before.RowConflicts:
			o = rowConflict
		}
		out[i] = transfer{arrive: now, done: done, outcome: o}
	}
	return m, out
}

// busShare returns the delivered bandwidth as a share of the channel's
// peak, counting each transfer's bus occupancy as [done-burst, done)
// over the window from the first transfer's start to the last one's
// end; the share of transfers whose span overlaps another's; and the
// window's idle bus cycles (which wrap when transfers overlap).
func busShare(m *Memory, ts []transfer) (share, overlap float64, idle uint64) {
	burst := m.BurstCycles(trafficLines)
	spans := make([]span, len(ts))
	for i, t := range ts {
		spans[i] = span{t.done - burst, t.done}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	first, last := spans[0].start, spans[0].end
	overlapped := make([]bool, len(spans))
	for i := 1; i < len(spans); i++ {
		if spans[i].start < last {
			overlapped[i] = true
			// Mark the earlier span still holding the bus too.
			for j := i - 1; j >= 0 && spans[j].end > spans[i].start; j-- {
				overlapped[j] = true
			}
		}
		last = max(last, spans[i].end)
	}
	n := 0
	for _, o := range overlapped {
		if o {
			n++
		}
	}
	busy := burst * uint64(len(spans))
	return float64(busy) / float64(last-first), float64(n) / float64(len(spans)), last - first - busy
}

// TestTrafficUnloadedLatency spaces accesses far enough apart that no
// two share a resource and requires each to take exactly its row
// outcome's latency plus the burst: TCAS on a hit, TRCD+TCAS on a
// closed row or an FR-FCFS-batched switch, TRP+TRCD+TCAS on a full
// switch. Writes take the reads' timing.
func TestTrafficUnloadedLatency(t *testing.T) {
	cfg := HBMConfig()
	burst := uint64(trafficLines / cfg.BeatBytes * cfg.CyclesPerBeat)
	want := map[rowOutcome]uint64{
		rowHit:      uint64(cfg.TCAS) + burst,
		rowMiss:     uint64(cfg.TRCD+cfg.TCAS) + burst,
		rowBatched:  uint64(cfg.TRCD+cfg.TCAS) + burst,
		rowConflict: uint64(cfg.TRP+cfg.TRCD+cfg.TCAS) + burst,
	}
	for _, p := range []rowPattern{seqRows, randomRows, mixedRows} {
		for _, writePct := range []int{0, 25, 100} {
			// 1000 cycles apart: past tRAS and every queue and bus window.
			_, ts := genTraffic(p, 2000, writePct, 1000, cfg.Banks, 1)
			seen := map[rowOutcome]int{}
			for i, tr := range ts {
				if got := tr.done - tr.arrive; got != want[tr.outcome] {
					t.Fatalf("%v/%d%% writes: access %d (outcome %d) took %d cycles, want %d",
						p, writePct, i, tr.outcome, got, want[tr.outcome])
				}
				seen[tr.outcome]++
			}
			t.Logf("%v/%d%% writes: outcomes hit/miss/batched/conflict = %d/%d/%d/%d",
				p, writePct, seen[rowHit], seen[rowMiss], seen[rowBatched], seen[rowConflict])
		}
	}
}

// trafficCase is one row of the offered-load table: a pattern over
// banks, a write share, and an arrival interval in cycles. HBMConfig
// moves a 64-byte line in 8 bus cycles, so interval 8 offers exactly
// the channel's peak, 16 half of it and 1 eight times it.
type trafficCase struct {
	p        rowPattern
	banks    int
	writePct int
	interval uint64
	// minShare and maxShare bound the delivered share of peak.
	minShare, maxShare float64
	// fullBus requires the bus to idle only for the first row switch,
	// TRCD cycles, before a backlog forms: exactly the peak after it.
	fullBus bool
	// overlaps marks a row on which two transfers hold the bus at once
	// today: it logs its share and overlap instead of failing (see
	// TestTrafficOfferedLoad).
	overlaps bool
}

// trafficTable spans the three patterns at quarter, half, peak and
// eight times peak offered load, with reads only, a quarter, half and
// all writes. The model times writes as reads (TestTrafficUnloadedLatency
// checks it access by access), so rows differing only in write share
// would measure the same.
var trafficTable = []trafficCase{
	// Below peak, every pattern over 16 banks delivers what is offered.
	{p: seqRows, banks: 16, writePct: 0, interval: 32, minShare: 0.2495, maxShare: 0.2505},
	{p: seqRows, banks: 16, writePct: 50, interval: 16, minShare: 0.499, maxShare: 0.501},
	{p: randomRows, banks: 16, writePct: 25, interval: 32, minShare: 0.2495, maxShare: 0.2505},
	{p: randomRows, banks: 16, writePct: 100, interval: 16, minShare: 0.499, maxShare: 0.501},
	{p: mixedRows, banks: 16, writePct: 0, interval: 32, minShare: 0.2495, maxShare: 0.2505},
	{p: mixedRows, banks: 16, writePct: 25, interval: 16, minShare: 0.499, maxShare: 0.501},
	// At the peak offered rate, row hits fill the bus exactly; mixed
	// rows fall just short while a bank turns its row around.
	{p: seqRows, banks: 16, writePct: 0, interval: 8, minShare: 0.999, maxShare: 1, fullBus: true},
	{p: seqRows, banks: 4, writePct: 25, interval: 8, minShare: 0.999, maxShare: 1, fullBus: true},
	{p: seqRows, banks: 16, writePct: 100, interval: 8, minShare: 0.999, maxShare: 1, fullBus: true},
	{p: mixedRows, banks: 16, writePct: 50, interval: 8, minShare: 0.999, maxShare: 1},
	// Random rows at the peak rate back up on busy banks, and a few
	// transfers already land on the bus over others.
	{p: randomRows, banks: 16, writePct: 25, interval: 8, overlaps: true},
	// Saturating rows: 123-135% of peak today.
	{p: seqRows, banks: 16, writePct: 25, interval: 1, overlaps: true},
	{p: randomRows, banks: 16, writePct: 25, interval: 1, overlaps: true},
	{p: mixedRows, banks: 16, writePct: 50, interval: 1, overlaps: true},
}

// TestTrafficOfferedLoad runs every row of trafficTable and requires
// each checked row's delivered share of peak to fall in its bounds with
// no two transfers on the bus at once.
//
// The overlapping rows show the bus-history fault ROADMAP queues a fix
// for: channel.reserveBus keeps only the newest busWindow reservations,
// so a transfer that lands before the oldest retained one is never
// checked against the trimmed spans it overlaps, and a saturated channel
// moves more than its peak. The queued fix is a low-water mark, the end
// of the newest trimmed span, below which no reservation may start; it
// changes results, so it waits for its own change, which turns these
// rows into checked ones (share at most 1, no overlap).
func TestTrafficOfferedLoad(t *testing.T) {
	for _, tc := range trafficTable {
		m, ts := genTraffic(tc.p, 50000, tc.writePct, tc.interval, tc.banks, 1)
		share, overlap, idle := busShare(m, ts)
		name := fmt.Sprintf("%v/%d banks/%d%% writes/every %d cycles", tc.p, tc.banks, tc.writePct, tc.interval)
		if got := 100 * float64(m.Stats().Writes) / float64(len(ts)); math.Abs(got-float64(tc.writePct)) > 1 {
			t.Errorf("%s: %.1f%% writes issued", name, got)
		}
		if tc.overlaps {
			t.Logf("%s: %.1f%% of peak, %.2f%% of transfers overlap (known fault, not checked)",
				name, 100*share, 100*overlap)
			continue
		}
		if overlap != 0 || share < tc.minShare || share > tc.maxShare {
			t.Errorf("%s: %.4f of peak with %.4f of transfers overlapping, want [%.4f, %.4f] and none",
				name, share, overlap, tc.minShare, tc.maxShare)
		}
		if trcd := uint64(m.cfg.TRCD); tc.fullBus && idle != trcd {
			t.Errorf("%s: bus idled %d cycles, want only the first row switch's %d", name, idle, trcd)
		}
	}
}

// throughput returns completed accesses per 1000 cycles over a run.
func throughput(ts []transfer) float64 {
	return 1000 * float64(len(ts)) / float64(ts[len(ts)-1].done)
}

// TestTrafficBankParallelism saturates the channel's queue with row
// switches spread over k banks: while the bus stays under its peak,
// k banks turn rows around in parallel and complete k times what one
// bank does, within a few percent.
func TestTrafficBankParallelism(t *testing.T) {
	for _, p := range []rowPattern{randomRows, mixedRows} {
		_, one := genTraffic(p, 20000, 25, 1, 1, 2)
		base := throughput(one)
		for _, k := range []int{2, 4} {
			_, ts := genTraffic(p, 20000, 25, 1, k, 2)
			got := throughput(ts)
			if got < 0.9*float64(k)*base || got > float64(k)*base*1.01 {
				t.Errorf("%v over %d banks: %.2f accesses per kcycle, one bank %.2f; want about %dx",
					p, k, got, base, k)
			}
			t.Logf("%v over %d banks: %.2f accesses per kcycle (%.2fx one bank)", p, k, got, got/base)
		}
	}
}
