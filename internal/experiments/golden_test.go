package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report files under testdata/")

// goldenIDs are the representative experiments pinned byte-for-byte:
// the headline figure, a sensitivity table, the CIP predictor sweep,
// and an ablation (which also covers the GAP graph workloads). They
// run on the shared small-scale runner, so regenerating them costs no
// simulations beyond what the shape tests already execute — and on a
// multi-core machine the shared runner's pool exercises the parallel
// scheduler, making any schedule-dependence show up as a golden diff.
var goldenIDs = []string{"fig10", "table4", "cip", "ablate-index", "fault-sweep", "metrics-demo"}

// TestGoldenReports compares each report's rendered bytes against
// testdata/<id>.golden. After an intentional simulator change, refresh
// the files with:
//
//	go test ./internal/experiments -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			got := report(t, tinyRunner(), id).String()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from %s (refresh with -update if intended):\n%s",
					id, path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff renders the first differing line of two reports.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(identical lines; trailing bytes differ)"
}
