// Shared run state: everything a simulation core needs that is not the
// scheduling discipline itself. prepare assembles the machine, cores
// and phase bookkeeping; processRef records the epoch boundaries due at
// a core's clock and advances the core by one reference (warmup
// accounting included); result folds the finished state into a Result.
// Both the event core (event.go) and the cycle-stepped reference core
// (reference.go) drive exactly these hooks, which is the structural
// half of the byte-identical-results guarantee — the other half is
// that both cores process references in the same (clock, core-index)
// order.
package sim

import (
	"fmt"

	"dice/internal/cache"
	"dice/internal/compress"
	"dice/internal/dcache"
	"dice/internal/dram"
	"dice/internal/energy"
	"dice/internal/fault"
	"dice/internal/obs"
	"dice/internal/workloads"
)

// runState carries one run's machine plus the loop-invariant sizing and
// phase bookkeeping shared by both simulation cores.
type runState struct {
	cfg   Config
	wName string

	m  *machine
	fm *fault.Model
	tr *obs.Tracer
	et *epochTracker
	cs []*core

	warm int // per-core warmup references before measurement
	refs int // per-core measured references

	warmClock   []uint64
	warmedCores int
	warmed      bool

	capSum      float64
	capSamples  float64
	sampleEvery int
	processed   int
}

// prepare validates cfg, assembles the machine and cores for workload
// w, and returns the ready-to-run state. It is the setup half of the
// former monolithic run loop, byte-for-byte: allocation order, sizing
// and defaulting are unchanged.
func prepare(cfg Config, w workloads.Workload, ob *obs.Observer) (*runState, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr := ob.Tracer()

	m := &machine{cfg: cfg}
	m.insts = w.Build(cfg.ScaleShift)

	// L4 DRAM device, with the bandwidth/latency knobs applied.
	hbmCfg := dram.HBMConfig()
	hbmCfg.Channels *= cfg.BWMult
	if cfg.HalfLatency {
		hbmCfg.TCAS /= 2
		hbmCfg.TRCD /= 2
		hbmCfg.TRP /= 2
		hbmCfg.TRAS /= 2
	}
	hbmCfg.Name, hbmCfg.Trace = "l4", tr
	ddrCfg := dram.DDRConfig()
	ddrCfg.Name, ddrCfg.Trace = "ddr", tr
	m.hbm = dram.New(hbmCfg)
	m.ddr = dram.New(ddrCfg)

	sets := (fullL4Sets >> cfg.ScaleShift) * cfg.CapacityMult
	if sets < 64 {
		sets = 64
	}
	// Validate has already accepted the name.
	alg, _ := compress.ParseAlg(cfg.CompressAlg)
	l4cfg := dcache.Config{
		Sets:       sets,
		Policy:     cfg.Policy,
		Org:        cfg.Org,
		Threshold:  cfg.Threshold,
		CIPEntries: cfg.CIPEntries,
		Alg:        alg,
		Mem:        m.hbm,
		Sizes:      m,
		Trace:      tr,
	}
	var fm *fault.Model
	if cfg.FaultBER > 0 {
		pol, err := fault.ParsePolicy(cfg.FaultPolicy)
		if err != nil {
			return nil, fmt.Errorf("sim: %v", err)
		}
		fm, err = fault.New(fault.Config{BER: cfg.FaultBER, Seed: cfg.FaultSeed, Policy: pol})
		if err != nil {
			return nil, fmt.Errorf("sim: %v", err)
		}
		l4cfg.Faults = fm
	}
	m.l4 = dcache.New(l4cfg)

	l3Bytes := fullL3Bytes >> cfg.ScaleShift
	if l3Bytes < 64*64*l3Ways {
		l3Bytes = 64 * 64 * l3Ways
	}
	m.l3 = cache.New(cache.Config{
		SizeBytes: l3Bytes, Ways: l3Ways, LineBytes: 64, HitLatency: l3HitLat,
	})
	m.mapi = dcache.NewMAPI(4096)

	// Size the run.
	refs := cfg.RefsPerCore
	if refs == 0 {
		maxFP := uint64(0)
		for _, in := range m.insts {
			if in.FootprintLines > maxFP {
				maxFP = in.FootprintLines
			}
		}
		refs = int(5 * maxFP)
		if refs < 120_000 {
			refs = 120_000
		}
		if refs > 400_000 {
			refs = 400_000
		}
	}
	warm := int(float64(refs) * warmupFrac)

	cs := make([]*core, cores)
	for i := range cs {
		in := m.insts[i%len(m.insts)]
		instrPerRef := instrPerRefMPKI / in.MPKI
		gap := uint64(float64(instrPerRef / issueWidth)) // rounded: never fused into the conversion
		if gap == 0 {
			gap = 1
		}
		cs[i] = &core{
			idx: i, inst: in, instrPerRef: instrPerRef, gapCycles: gap, refsTarget: warm + refs,
			outstanding: make([]uint64, 0, cfg.MLPWindow+1),
		}
	}

	st := &runState{
		cfg: cfg, wName: w.Name,
		m: m, fm: fm, tr: tr, cs: cs,
		warm: warm, refs: refs,
		warmClock: make([]uint64, cores),
	}

	// Epoch sampling rides the cores' virtual clocks (see processRef).
	if rec := ob.Recorder(); rec != nil {
		st.et = newEpochTracker(rec, m, fm, cs)
	}

	st.sampleEvery = (refs * cores) / 64
	if st.sampleEvery == 0 {
		st.sampleEvery = 1
	}
	return st, nil
}

// processRef executes one reference on core c — the loop body shared by
// both simulation cores: record every epoch boundary due at c's clock,
// step the machine, account warmup (resetting shared-structure stats
// once every core is warm), and sample effective capacity. It reports
// whether c still has references to run. References run in
// nondecreasing clock order, so boundaries are recorded in order, each
// with the machine state as of the last reference before it, and none
// past the final reference's clock.
func (st *runState) processRef(c *core) bool {
	if st.et != nil {
		for st.et.rec.Due(c.clock) {
			st.et.record()
		}
	}
	m := st.m
	m.step(c)
	c.refsDone++
	st.processed++

	if c.refsDone == st.warm {
		st.warmClock[c.idx] = c.clock
		st.warmedCores++
		if st.warmedCores == cores {
			st.warmed = true
			m.l3.ResetStats()
			m.l4.ResetStats()
			m.hbm.ResetStats()
			m.ddr.ResetStats()
			m.pf = PrefetchStats{}
			if st.fm != nil {
				// Counters restart with the measured window; the fault
				// stream itself keeps advancing (no tick rewind).
				st.fm.ResetStats()
			}
			if st.tr.Enabled(obs.CompSim) {
				st.tr.Emitf(c.clock, obs.CompSim, "measurement-start",
					"all %d cores warm, shared-structure stats reset", cores)
			}
		}
	}
	if st.warmed && st.processed%st.sampleEvery == 0 {
		st.capSum += m.l4.EffectiveCapacity()
		st.capSamples++
	}
	return c.refsDone < c.refsTarget
}

// result folds the finished run state into a Result: per-core IPC over
// each core's measured window, then the shared-structure statistics.
func (st *runState) result() Result {
	m := st.m
	res := Result{Workload: st.wName, Config: st.cfg, IPC: make([]float64, cores)}
	var maxFinish, minStart uint64
	minStart = ^uint64(0)
	for i, c := range st.cs {
		finish := c.clock
		for _, t := range c.outstanding {
			if t > finish {
				finish = t
			}
		}
		start := st.warmClock[i]
		if st.warm == 0 {
			start = 0
		}
		span := finish - start
		if span == 0 {
			span = 1
		}
		instr := float64(st.refs) * c.instrPerRef
		res.IPC[i] = instr / float64(span)
		if finish > maxFinish {
			maxFinish = finish
		}
		if start < minStart {
			minStart = start
		}
	}
	res.Cycles = maxFinish - minStart
	res.L3 = m.l3.Stats()
	res.L4 = m.l4.Stats()
	res.HBM = m.hbm.Stats()
	res.DDR = m.ddr.Stats()
	res.Energy = energy.Compute(res.HBM, res.DDR, res.Cycles)
	res.CIPAccuracy = m.l4.CIP().Accuracy()
	res.CIPPredictions = m.l4.CIP().Predictions()
	res.MAPIAccuracy = m.mapi.Accuracy()
	if st.capSamples > 0 {
		res.EffCapacity = st.capSum / st.capSamples
	} else {
		res.EffCapacity = m.l4.EffectiveCapacity()
	}
	if st.fm != nil {
		res.Fault = st.fm.Stats()
	}
	res.QuarantinedSets = m.l4.QuarantineCount()
	res.Prefetches = m.pf
	return res
}

// finish returns the run's Result and releases the L4 set storage for
// reuse; the state must not be read afterwards.
func (st *runState) finish() Result {
	res := st.result()
	st.m.l4.Release()
	return res
}
