// Metrics demo: exercises the observability layer end to end and pins
// its export schema in a golden report. The demo runs one workload
// under DICE with an epoch recorder attached, tabulates a few
// per-epoch series, and records two invariants in its notes: the
// exact epoch-snapshot schema (so a field addition or rename shows up
// as a golden diff in review) and the recording-on-vs-off determinism
// check (observation never changes simulation results).
package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"dice/internal/obs"
	"dice/internal/workloads"
)

// metricsDemoEpochs is how many epochs the demo aims for: few enough
// to read as a table, enough to show the warmup-to-steady transition.
const metricsDemoEpochs = 8

// metricsDemoWorkload picks gcc — compressible and CIP-active, so the
// indexing-policy columns move.
func metricsDemoWorkload() workloads.Workload {
	return named("gcc")[0]
}

// MetricsDemo runs gcc under DICE with an epoch-metrics recorder and
// tabulates the run's time series, one row per epoch. Its recorded
// re-run is the one simulation in the catalog that is not a declared
// cell: the epoch length depends on the reference run's cycles.
func MetricsDemo(v Results) *Report {
	w := metricsDemoWorkload()
	ref := v.Get(dice, w) // the declared cell, memoized like any other

	// Size the epoch so the whole run (warmup included) lands near
	// metricsDemoEpochs samples. ref.Cycles is the measured window —
	// about two-thirds of the run at the default 0.5 warmup fraction.
	epoch := ref.Cycles*3/2/metricsDemoEpochs + 1

	var snaps []obs.Snapshot
	rec := obs.NewRecorder(epoch, func(s obs.Snapshot) { snaps = append(snaps, s) })
	res := v.rerun(dice, w, &obs.Observer{Rec: rec})

	rep := &Report{Title: "Observability demo: epoch metrics for gcc under DICE",
		Columns: []string{"ipc", "l4hit", "effcap", "baifrac", "cipacc", "ddrutil"}}
	for _, e := range snaps {
		rep.AddRow(fmt.Sprintf("epoch%d", e.Epoch), "",
			e.IPC, e.L4HitRate, e.EffCapacity, e.CIPBAIFrac, e.CIPAccuracy, e.DDRBusUtil)
	}

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("epoch = %d cycles; %d epochs recorded", epoch, len(snaps)),
		fmt.Sprintf("schema v%d: %s", obs.SchemaVersion, strings.Join(obs.SchemaFields(), ",")),
		fmt.Sprintf("recording on vs off produced identical results: %v", reflect.DeepEqual(ref, res)),
	)
	return rep
}
