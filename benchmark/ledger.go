package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"
)

// The layer ledger charges CPU-profile samples to the layers of the
// two end-to-end paths. Its boundaries follow the DRAM-cache DSE model
// the repository tracks: the DRAM-cache manager (dcache) is one layer,
// the memory controllers (dram) another, the L3 a third.

// layerOf maps every package under internal/ to the ledger layer its
// CPU time is charged to. The benchmark's tests fail when a package is
// added to internal/ without an entry here.
var layerOf = map[string]string{
	"cache":        "l3",
	"compress":     "compress",
	"dcache":       "dcache",
	"fault":        "dcache", // the L4's ECC model, called on its read path
	"dram":         "dram",
	"sim":          "sim",
	"energy":       "sim", // folded into the Result at the end of sim.Run
	"workloads":    "workloads",
	"trace":        "workloads",
	"data":         "workloads",
	"graph":        "workloads",
	"serve":        "service",
	"serve/client": "service",
	"dse":          "service",
	"commitlog":    "service",
	"experiments":  "service", // the daemon's per-job runner
	"parallel":     "service",
	"stats":        "other",
	"obs":          "other",
	"core":         "other",
	"clidoc":       "other",
	"sigctx":       "other",
	"leakcheck":    "other",
}

// ledgerLayers lists the layers in report order with the metric that
// carries each one's self time.
var ledgerLayers = []struct{ layer, metric string }{
	{"compress", "compress.self_s"},
	{"dcache", "dcache.self_s"},
	{"dram", "dram.self_s"},
	{"l3", "l3.self_s"},
	{"sim", "sim.self_s"},
	{"workloads", "workloads.gen_self_s"},
	{"runtime", "runtime.self_s"},
	{"service", "service.self_s"},
	{"other", "other.self_s"},
}

const modulePrefix = "dice/internal/"

// runLabel marks the goroutines the benchmark starts (and, by
// inheritance, every goroutine they start) so the ledger can tell them
// from the Go runtime's own background workers.
var runLabel = pprof.Labels("bench", "run")

// packageOf returns the internal/ package path of a profiled function
// name ("dice/internal/serve/client.(*Client).Submit" -> "serve/client"),
// or "" for functions outside the module's internal tree.
func packageOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	head := rest
	if cut := strings.IndexAny(head, "[("); cut >= 0 {
		head = head[:cut] // type arguments may hold package paths too
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(rest[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	return rest[:slash+1+dot]
}

// layerOfStack names the layer one sample is charged to. The leaf
// frame decides: a function of an internal package is charged to that
// package's layer; a Go runtime function (allocation, GC assist, map
// and copy helpers) to "runtime". Other standard-library leaves, such
// as math or syscall, are charged to the nearest internal caller on
// the stack, since they run on its behalf. A stack with none stays
// unattributed ("").
func layerOfStack(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	leaf := stack[0]
	if strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "internal/runtime/") {
		return "runtime"
	}
	for _, fn := range stack {
		if pkg := packageOf(fn); pkg != "" {
			if layer, ok := layerOf[pkg]; ok {
				return layer
			}
			return "other"
		}
	}
	return ""
}

// profiled runs fn under a CPU profile and returns the per-layer self
// time of the samples taken on the benchmark's own goroutines.
func profiled(fn func() error) (map[string]time.Duration, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	self := map[string]time.Duration{}
	for _, s := range samples {
		if s.labels["bench"] != "run" {
			continue // runtime background work: GC mark workers, the profiler
		}
		if layer := layerOfStack(s.stack); layer != "" {
			self[layer] += time.Duration(s.nanos)
		}
	}
	return self, nil
}

// withRunLabel runs fn on the calling goroutine under runLabel.
func withRunLabel(fn func()) {
	pprof.Do(context.Background(), runLabel, func(context.Context) { fn() })
}

// ledgerMetrics turns per-layer self times into metrics and closes the
// ledger against the end-to-end host time e2e: whatever the layers do
// not account for is reported as ledger.unattributed_s, so the layer
// self times plus that figure always sum to ledger.e2e_host_s.
func ledgerMetrics(m metrics, self map[string]time.Duration, e2e time.Duration) {
	var sum time.Duration
	for _, l := range ledgerLayers {
		m[l.metric] = self[l.layer].Seconds()
		sum += self[l.layer]
	}
	m["ledger.e2e_host_s"] = e2e.Seconds()
	m["ledger.unattributed_s"] = (e2e - sum).Seconds()
}
