package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"time"

	"dice/internal/serve"
	"dice/internal/sim"
	"dice/internal/workloads"
)

// simRefsPerCore is the daemon's default per-core reference budget;
// the standard 50% warm-up runs on top of it, so statistics start
// after the modelled caches have filled.
const simRefsPerCore = 60_000

// simCell is one simulation the sim workloads repeat: a catalog
// workload under one configuration.
type simCell struct {
	spec serve.CellSpec
	w    workloads.Workload
	cfg  sim.Config
}

func newSimCell(workload, policy string) simCell {
	spec := serve.CellSpec{Workload: workload, Policy: policy, Refs: simRefsPerCore}
	w, err := workloads.ByName(workload)
	if err != nil {
		panic(err) // the cell lists below name cataloged workloads only
	}
	cfg, err := spec.Config(0)
	if err != nil {
		panic(err)
	}
	return simCell{spec: spec, w: w, cfg: cfg}
}

// Both sim workloads run a fixed set of catalog members; the seed
// picks the order the cells run in. Members are fixed because their
// costs differ up to threefold (bc_web against pr_web), so a seed that
// picked members would make runs with different seeds incomparable.

// simDiceCells is sim-dice: DICE on a SPEC mix and on a GAP graph
// workload, which together exercise compression sizing, the size
// caches, dcache repacking and CIP, graph line generation and the cold
// GAP artifact build.
func simDiceCells(seed int64) []simCell {
	return shuffled(seed, newSimCell("mix1", "dice"), newSimCell("pr_twi", "dice"))
}

// simBaseCells is sim-base: the uncompressed Alloy baseline on the
// streaming, write-heavy, incompressible SPEC rate workloads, where
// compression does nothing and DRAM reservation, the L3, the event
// loop and the writeback path dominate.
func simBaseCells(seed int64) []simCell {
	return shuffled(seed, newSimCell("libq", "base"), newSimCell("lbm", "base"),
		newSimCell("Gems", "base"), newSimCell("milc", "base"))
}

func shuffled(seed int64, cells ...simCell) []simCell {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// simRun is one cell's first timed result, which every repetition and
// the reference core must reproduce exactly.
type simRun struct {
	res sim.Result
	es  sim.EventStats
}

type simState struct {
	probe *hostProbe
	cells []simCell
	first []*simRun
	rep   *report
}

// simWindow is what one measured window of whole rounds produced: per
// cell, the references one simulation runs (warm-up included) and each
// simulation's wall time and process CPU time; and the host's speed
// over the window.
type simWindow struct {
	refs  []uint64
	wall  [][]time.Duration
	cpu   [][]time.Duration
	speed float64
}

// medianRound is the time of one round — every cell once — made of
// each cell's median time, so a simulation slowed by a noisy neighbour
// does not move it.
func medianRound(per [][]time.Duration) time.Duration {
	var sum time.Duration
	for _, ds := range per {
		sum += percentile(ds, 50)
	}
	return sum
}

// roundRefs is the references one round simulates.
func (w simWindow) roundRefs() uint64 {
	var n uint64
	for _, r := range w.refs {
		n += r
	}
	return n
}

// refsPerSec is the simulator's throughput at reference-host speed:
// one round's references over the round's median CPU time.
func (w simWindow) refsPerSec() float64 {
	return float64(w.roundRefs()) / medianRound(w.cpu).Seconds() / w.speed
}

// totals returns the simulations the window ran, the references they
// simulated and the wall time spent inside sim.RunEvent.
func (w simWindow) totals() (sims int, refs uint64, busy time.Duration) {
	for i, ds := range w.wall {
		sims += len(ds)
		refs += w.refs[i] * uint64(len(ds))
		for _, d := range ds {
			busy += d
		}
	}
	return sims, refs, busy
}

func runSim(o options, cells []simCell) (*report, error) {
	rep := &report{metrics: metrics{}}
	setup, rawSetup, err := timeSetup(o.probe, func() (func() error, error) {
		workloads.DropCache()
		for _, c := range cells {
			c.w.Warm(c.cfg.EffectiveScale())
		}
		return func() error { return nil }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup.Seconds()
	rep.metrics["workloads.build_s"] = setup.Seconds()

	st := &simState{probe: o.probe, cells: cells, first: make([]*simRun, len(cells)), rep: rep}
	var measured simWindow
	if !o.trace {
		measurePeakRSS(rep, func() { measured = st.window(o.window) })
	} else {
		measurePeakRSS(rep, func() { measured = st.window(o.window / 2) })
		var traced simWindow
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		self, err := profiled(func() error {
			traced = st.window(o.window / 2)
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		_, refs, busy := traced.totals()
		ledgerMetrics(rep.metrics, self, busy)
		rep.metrics["ledger.trace_overhead_frac"] = measured.refsPerSec()/traced.refsPerSec() - 1
		rep.metrics["runtime.alloc_bytes_per_ref"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(refs)
		rep.metrics["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	}
	speed := measured.speed
	rep.metrics["host.speed"] = speed
	rep.metrics["sim_refs_per_s"] = measured.refsPerSec()
	rep.metrics["cells_per_hour"] = float64(len(cells)) / medianRound(measured.cpu).Hours() / speed
	rawP50, rawTail, pct := latencySummary(pooledTurnaround(measured.cpu))
	sims, _, _ := measured.totals()
	rep.metrics["cell_turnaround_p50_ms"] = rawP50 * speed
	rep.metrics["cell_turnaround_p99_ms"] = rawTail * speed
	rep.metrics["turnaround.samples"] = float64(sims)
	rep.metrics["turnaround.tail_pct"] = pct

	st.referenceGate()
	digest := st.countMetrics()
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.spec.Workload + "/" + c.spec.Policy
	}
	rep.note("cells (seed order): %s", strings.Join(names, " "))
	rep.note("as measured, at host speed %.3f: %.0f refs/s, cell turnaround p50 %.2f ms, tail p%.0f %.2f ms over %d simulations, set-up %.4g s",
		speed, float64(measured.roundRefs())/medianRound(measured.cpu).Seconds(), rawP50, pct, rawTail, sims, rawSetup.Seconds())
	rep.note("in wall time: %.0f refs/s", float64(measured.roundRefs())/medianRound(measured.wall).Seconds())
	rep.note("simulated counts digest: %s", digest)
	return rep, nil
}

// window runs whole rounds — every cell once, in seed order — until d
// has elapsed, so every window measures the same mix of cells. A
// simulation's host time is the process CPU time it took: simulations
// run one at a time, so that is the simulating thread's plus the GC
// work its allocations caused, without the time the VM waited for a
// CPU. A probe burst runs before the first simulation and after each
// one, on the simulating thread, and the window's speed is their
// median: a single burst is too short to scale one simulation by.
func (st *simState) window(d time.Duration) simWindow {
	n := len(st.cells)
	w := simWindow{refs: make([]uint64, n), wall: make([][]time.Duration, n),
		cpu: make([][]time.Duration, n)}
	from := time.Now()
	st.probe.sample()
	for time.Since(from) < d {
		for i, c := range st.cells {
			t0, c0 := time.Now(), processCPU()
			res, es, err := sim.RunEvent(c.cfg, c.w)
			cpu, wall := processCPU()-c0, time.Since(t0)
			st.probe.sample()
			w.wall[i] = append(w.wall[i], wall)
			w.cpu[i] = append(w.cpu[i], cpu)
			st.check(i, res, es, err)
			w.refs[i] = es.CoreEvents
		}
	}
	w.speed = st.probe.hostSpeed(from, time.Now())
	return w
}

// check is the exact-count gate: a simulation is deterministic, so
// every repetition of a cell must reproduce its first run's Result and
// scheduler counters bit for bit. A difference is a failure, not noise.
func (st *simState) check(i int, res sim.Result, es sim.EventStats, err error) {
	st.rep.attempted++
	key := st.cells[i].spec.Key()
	if err != nil {
		st.rep.fail("%s: %v", key, err)
		return
	}
	f := st.first[i]
	if f == nil {
		st.first[i] = &simRun{res: res, es: es}
		return
	}
	if es != f.es || !reflect.DeepEqual(res, f.res) {
		st.rep.fail("%s: simulated counts differ between repetitions", key)
	}
}

// referenceGate re-runs each distinct cell once, untimed, on the
// cycle-stepped reference core; its Result must equal the timed run's.
func (st *simState) referenceGate() {
	for i, c := range st.cells {
		st.rep.attempted++
		key := c.spec.Key()
		ref, err := sim.RunReference(c.cfg, c.w)
		switch {
		case err != nil:
			st.rep.fail("%s: reference core: %v", key, err)
		case st.first[i] == nil:
			st.rep.fail("%s: never completed a timed run", key)
		case !reflect.DeepEqual(ref, st.first[i].res):
			st.rep.fail("%s: event core and reference core disagree", key)
		}
	}
}

// countMetrics sums the simulated counts over the workload's distinct
// cells (each counted once, from its first run) and returns a digest
// of them: two runs with the same seed must print the same digest.
func (st *simState) countMetrics() string {
	var (
		reads, probes, hits, installs, wbAccesses, memoHits, memoLookups uint64
		hbm, ddr, rowConflicts, queueStalls, l3Hits, l3Misses            uint64
		coreEvents, skipped, cycles                                      uint64
	)
	for _, f := range st.first {
		if f == nil {
			continue
		}
		r := f.res
		reads += r.L4.Reads
		probes += r.L4.Probes
		hits += r.L4.ReadHits
		installs += r.L4.Installs
		wbAccesses += r.L4.WritebackAccesses
		memoHits += r.L4.SizeMemoHits
		memoLookups += r.L4.SizeMemoHits + r.L4.SizeMemoMisses
		hbm += r.HBM.Reads + r.HBM.Writes
		ddr += r.DDR.Reads + r.DDR.Writes
		rowConflicts += r.HBM.RowConflicts + r.DDR.RowConflicts
		queueStalls += r.HBM.QueueStallCycles + r.DDR.QueueStallCycles
		l3Hits += r.L3.Hits
		l3Misses += r.L3.Misses
		coreEvents += f.es.CoreEvents
		skipped += f.es.CyclesSkipped
		cycles += r.Cycles
	}
	m := st.rep.metrics
	m["dcache.reads"] = float64(reads)
	m["dcache.probes_per_read"] = ratio(probes, reads)
	m["dcache.hit_rate"] = ratio(hits, reads)
	m["dcache.installs"] = float64(installs)
	m["dcache.writeback_accesses"] = float64(wbAccesses)
	m["dcache.size_memo_hit_ratio"] = ratio(memoHits, memoLookups)
	m["dram.hbm_accesses"] = float64(hbm)
	m["dram.ddr_accesses"] = float64(ddr)
	m["dram.row_conflicts"] = float64(rowConflicts)
	m["dram.queue_stall_cycles"] = float64(queueStalls)
	m["l3.hit_rate"] = ratio(l3Hits, l3Hits+l3Misses)
	m["l3.misses"] = float64(l3Misses)
	m["sim.core_events"] = float64(coreEvents)
	m["sim.cycles_skipped"] = float64(skipped)
	m["sim.cycles"] = float64(cycles)

	counts := []uint64{reads, probes, hits, installs, wbAccesses, memoHits, memoLookups,
		hbm, ddr, rowConflicts, queueStalls, l3Hits, l3Misses, coreEvents, skipped, cycles}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(counts))))[:16]
}

// pooledTurnaround pools the per-cell simulation times into one sample
// set. Cells differ in length, so each sample is scaled by the mean of
// the cells' medians over its own cell's median: the pool then has one
// mode, at the typical cell's time, and its spread is the run-to-run
// jitter of a cell.
func pooledTurnaround(durs [][]time.Duration) []time.Duration {
	meds := make([]float64, 0, len(durs))
	for _, ds := range durs {
		meds = append(meds, float64(percentile(ds, 50)))
	}
	var mean float64
	for _, m := range meds {
		mean += m / float64(len(meds))
	}
	var pool []time.Duration
	for i, ds := range durs {
		for _, d := range ds {
			pool = append(pool, time.Duration(float64(d)*mean/meds[i]))
		}
	}
	return pool
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
