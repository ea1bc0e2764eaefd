// The cycle-stepped reference core: the trivially-correct scheduling
// discipline the event core is differentially tested against. The
// global clock advances one virtual cycle at a time; every cycle, each
// core is polled in index order and stepped if its clock has arrived.
// No clock-skipping, no event heap — just the textbook loop. It stays
// in the tree build-tag-free as the differential-testing oracle.
package sim

import (
	"dice/internal/obs"
	"dice/internal/workloads"
)

// runReference drives the prepared state to completion one cycle at a
// time. Cores are visited in (clock, index) order by construction —
// the per-cycle index scan — which is exactly the event heap's dispatch
// order, so both cores produce byte-identical results.
func runReference(st *runState) {
	remaining := len(st.cs)
	done := make([]bool, len(st.cs))
	for now := uint64(0); remaining > 0; now++ {
		for _, c := range st.cs {
			if done[c.idx] || c.clock != now {
				continue
			}
			// Record any due epoch boundaries before stepping, exactly as
			// the pre-event-core loop did at each heap pop.
			if st.et != nil {
				for st.et.rec.Due(c.clock) {
					st.et.record()
				}
			}
			if !st.processRef(c) {
				done[c.idx] = true
				remaining--
			}
		}
	}
}

// RunReference executes workload w under cfg on the cycle-stepped
// reference core.
func RunReference(cfg Config, w workloads.Workload) (Result, error) {
	return RunReferenceObserved(cfg, w, nil)
}

// RunReferenceObserved is RunReference with an observer attached (see
// RunObserved for observer semantics).
func RunReferenceObserved(cfg Config, w workloads.Workload, ob *obs.Observer) (Result, error) {
	st, err := prepare(cfg, w, ob)
	if err != nil {
		return Result{}, err
	}
	runReference(st)
	res := st.result()
	st.m.l4.Release()
	return res, nil
}
