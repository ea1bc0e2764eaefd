// Package obs is the simulator's time-series observability layer: an
// epoch-sampled metrics recorder (Recorder) with its one export format
// (EpochLine, written by EpochWriter), a structured event tracer
// (Tracer), and profiling helpers (CPU/heap profiles plus
// runtime/metrics self-stats). Recorder and Tracer share one contract:
// each hands what it observes to a sink as it happens and keeps no
// buffer, so nothing is silently lost.
//
// The package is deliberately dependency-free within the simulator: it
// defines only plain snapshot/event values, and the sim layer adapts
// component statistics into them. That keeps the import direction
// one-way (dcache/dram/sim import obs, never the reverse) and makes the
// observer physically unable to reach into simulated state.
//
// Determinism contract: observation is read-only. A Recorder or Tracer
// attached to a run may copy statistics and hand snapshots and events
// to its sink, but it never feeds anything back into the simulation, so
// results are byte-identical with observation on or off, at any worker
// count. The determinism tests in internal/sim and internal/experiments
// enforce this.
package obs

// Observer bundles the optional observation hooks one simulation
// carries: an epoch metrics recorder and/or an event tracer. A nil
// *Observer (or nil fields) disables observation entirely; the hot
// paths guard with nil-safe accessors so the disabled cost is one
// pointer compare.
type Observer struct {
	// Rec, when non-nil, samples an epoch metrics snapshot every
	// Rec.EpochCycles() of simulated time.
	Rec *Recorder
	// Trace, when non-nil, hands structured component events to its
	// sink.
	Trace *Tracer
}

// Recorder returns the observer's epoch recorder; safe on a nil
// receiver (returns nil).
func (o *Observer) Recorder() *Recorder {
	if o == nil {
		return nil
	}
	return o.Rec
}

// Tracer returns the observer's event tracer; safe on a nil receiver
// (returns nil).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}
