package obs

import (
	"reflect"
	"strings"
)

// Snapshot is one epoch's metrics sample. Counter-style fields
// (cycles, refs, reads, installs, fault counts, cip_predictions) are
// per-epoch deltas; gauge-style fields (queue depths, eff_capacity,
// cip_bai_frac, quarantined_sets) are point-in-time values at the
// epoch boundary; rate/accuracy fields are computed over the epoch
// unless noted. METRICS.md documents every field; the obs tests
// enforce that the document and this struct never drift apart.
type Snapshot struct {
	// Epoch is the zero-based epoch index.
	Epoch uint64 `json:"epoch"`
	// EndCycle is the simulated cycle of the epoch boundary.
	EndCycle uint64 `json:"end_cycle"`
	// Cycles is the epoch length in simulated cycles.
	Cycles uint64 `json:"cycles"`
	// Refs is the number of memory references processed this epoch.
	Refs uint64 `json:"refs"`
	// IPC is the aggregate instructions-per-cycle over the epoch.
	IPC float64 `json:"ipc"`
	// CoreIPC is the per-core IPC over the epoch.
	CoreIPC []float64 `json:"core_ipc"`
	// L4Reads is the number of L4 demand reads this epoch.
	L4Reads uint64 `json:"l4_reads"`
	// L4HitRate is the L4 demand-read hit rate over the epoch.
	L4HitRate float64 `json:"l4_hit_rate"`
	// L4Queue is the stacked-DRAM in-flight request count at the boundary.
	L4Queue uint64 `json:"l4_queue"`
	// L4BusUtil is the stacked-DRAM data-bus utilization over the epoch.
	L4BusUtil float64 `json:"l4_bus_util"`
	// L4BytesPerAccess is stacked-DRAM bytes moved per access this epoch.
	L4BytesPerAccess float64 `json:"l4_bytes_per_access"`
	// DDRReads is the main-memory read count this epoch.
	DDRReads uint64 `json:"ddr_reads"`
	// DDRWrites is the main-memory write count this epoch.
	DDRWrites uint64 `json:"ddr_writes"`
	// DDRQueue is the main-memory in-flight request count at the boundary.
	DDRQueue uint64 `json:"ddr_queue"`
	// DDRBusUtil is the main-memory data-bus utilization over the epoch.
	DDRBusUtil float64 `json:"ddr_bus_util"`
	// EffCapacity is the L4 effective-capacity multiplier at the boundary.
	EffCapacity float64 `json:"eff_capacity"`
	// InstallBAI counts BAI-indexed installs this epoch.
	InstallBAI uint64 `json:"install_bai"`
	// InstallTSI counts TSI-indexed installs this epoch.
	InstallTSI uint64 `json:"install_tsi"`
	// InstallInvariant counts index-invariant installs this epoch.
	InstallInvariant uint64 `json:"install_invariant"`
	// CIPBAIFrac is the fraction of CIP Last-Time-Table entries
	// currently predicting BAI — the PSEL-analogue policy bias.
	CIPBAIFrac float64 `json:"cip_bai_frac"`
	// CIPPolicyBAI is 1 when the predictor's current dominant indexing
	// policy is BAI (CIPBAIFrac >= 0.5), else 0.
	CIPPolicyBAI uint64 `json:"cip_policy_bai"`
	// CIPAccuracy is the cumulative CIP prediction accuracy so far.
	CIPAccuracy float64 `json:"cip_accuracy"`
	// CIPPredictions counts scored CIP predictions this epoch.
	CIPPredictions uint64 `json:"cip_predictions"`
	// CIPFlips counts Last-Time-Table entries that changed value this
	// epoch (a page's indexing policy flipped).
	CIPFlips uint64 `json:"cip_flips"`
	// FaultCorrected counts ECC-corrected words this epoch.
	FaultCorrected uint64 `json:"fault_corrected"`
	// FaultDetected counts detected-uncorrectable words this epoch.
	FaultDetected uint64 `json:"fault_detected"`
	// FaultSilent counts silently corrupt words this epoch.
	FaultSilent uint64 `json:"fault_silent"`
	// FaultRefetches counts would-be hits converted to main-memory
	// refetches by faults this epoch.
	FaultRefetches uint64 `json:"fault_refetches"`
	// QuarantinedSets is the number of quarantined L4 sets at the boundary.
	QuarantinedSets uint64 `json:"quarantined_sets"`
}

// SchemaFields returns the JSON field names of the epoch snapshot
// schema, in declaration order. METRICS.md must document every one;
// the metrics-demo golden pins the list so schema drift is visible in
// review.
func SchemaFields() []string {
	t := reflect.TypeOf(Snapshot{})
	fields := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		tag := t.Field(i).Tag.Get("json")
		if name, _, _ := strings.Cut(tag, ","); name != "" {
			fields = append(fields, name)
		}
	}
	return fields
}

// Recorder samples epoch metrics and hands every snapshot to its sink.
// It is attached to exactly one simulation and used from that
// simulation's goroutine only (like fault.Model, it is not safe for
// concurrent use). The recorder never mutates simulated state: the sim
// layer copies its component statistics into a Snapshot and hands it
// over. It keeps no snapshots itself, so its memory does not grow with
// run length; what the sink keeps is the sink's to bound.
type Recorder struct {
	epoch uint64
	next  uint64
	count uint64
	sink  func(Snapshot)
}

// NewRecorder returns a recorder sampling every epochCycles of
// simulated time and passing each snapshot to sink. The sink runs on
// the simulation goroutine: keep it fast and non-blocking. It panics
// if epochCycles is zero or sink is nil.
func NewRecorder(epochCycles uint64, sink func(Snapshot)) *Recorder {
	if epochCycles == 0 {
		panic("obs: epochCycles must be positive")
	}
	if sink == nil {
		panic("obs: recorder needs a sink")
	}
	return &Recorder{epoch: epochCycles, next: epochCycles, sink: sink}
}

// EpochCycles returns the sampling period in simulated cycles.
func (r *Recorder) EpochCycles() uint64 { return r.epoch }

// Due reports whether simulated time now has reached the next epoch
// boundary. Safe on a nil receiver (never due).
func (r *Recorder) Due(now uint64) bool { return r != nil && now >= r.next }

// Boundary returns the cycle of the next epoch boundary.
func (r *Recorder) Boundary() uint64 { return r.next }

// Record stamps one snapshot with its epoch index, boundary cycle and
// length, passes it to the sink, and advances the boundary.
func (r *Recorder) Record(s Snapshot) {
	s.Epoch = r.count
	s.EndCycle = r.next
	s.Cycles = r.epoch
	r.count++
	r.next += r.epoch
	r.sink(s)
}

// SchemaVersion identifies the Snapshot schema; bump it when Snapshot
// fields change incompatibly.
const SchemaVersion = 1
