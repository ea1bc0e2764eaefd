package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
)

// StartCPUProfile begins a CPU profile written to path and returns a
// stop function that ends the profile and closes the file. Wire it to
// a CLI's -cpuprofile flag:
//
//	stop, err := obs.StartCPUProfile(*cpuprofile)
//	defer stop()
func StartCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeapProfile writes an allocation (heap) profile to path, after
// a GC so the profile reflects live objects. Wire it to a CLI's
// -memprofile flag at exit.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	return nil
}

// SelfStatus is a point-in-time capture of the running process: the
// goroutine count plus the Go runtime's cumulative allocation and GC
// counters (via runtime/metrics). Two captures bracket a run, and
// SelfReport turns their difference into the simulator's self-cost
// summary; the experiment daemon serves one from /healthz, where
// long-lived processes watch AllocBytes/GCCycles deltas and Goroutines
// for leaks.
type SelfStatus struct {
	// Goroutines is the current goroutine count (runtime.NumGoroutine).
	Goroutines int `json:"goroutines"`
	// AllocBytes is cumulative heap bytes allocated (/gc/heap/allocs:bytes).
	AllocBytes uint64 `json:"alloc_bytes"`
	// AllocObjects is cumulative heap objects allocated (/gc/heap/allocs:objects).
	AllocObjects uint64 `json:"alloc_objects"`
	// GCCycles is cumulative completed GC cycles (/gc/cycles/total:gc-cycles).
	GCCycles uint64 `json:"gc_cycles"`
}

// selfMetricNames are the runtime/metrics keys CaptureSelf reads, in
// SelfStatus field order.
var selfMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// CaptureSelf reads the process's current goroutine count and the
// runtime's allocation and GC counters.
func CaptureSelf() SelfStatus {
	samples := make([]metrics.Sample, len(selfMetricNames))
	for i, n := range selfMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	vals := make([]uint64, len(samples))
	for i, m := range samples {
		if m.Value.Kind() == metrics.KindUint64 {
			vals[i] = m.Value.Uint64()
		}
	}
	return SelfStatus{Goroutines: runtime.NumGoroutine(),
		AllocBytes: vals[0], AllocObjects: vals[1], GCCycles: vals[2]}
}

// SelfReport renders the runtime cost between two samples, normalized
// per million simulated ticks (simTicks is the summed simulated-cycle
// count of the work in between; 0 suppresses the normalized figures).
func SelfReport(before, after SelfStatus, simTicks uint64) string {
	db := after.AllocBytes - before.AllocBytes
	do := after.AllocObjects - before.AllocObjects
	dg := after.GCCycles - before.GCCycles
	if simTicks == 0 {
		return fmt.Sprintf("self: allocated %.1fMB in %d objects, %d GC cycles",
			float64(db)/(1<<20), do, dg)
	}
	mt := float64(simTicks) / 1e6
	return fmt.Sprintf("self: allocated %.1fMB in %d objects, %d GC cycles over %.1fM simulated ticks (%.1fKB, %.0f objects per M-tick)",
		float64(db)/(1<<20), do, dg, mt, float64(db)/1024/mt, float64(do)/mt)
}
