package obs

import (
	"fmt"
	"slices"
	"strings"
)

// Component identifies which simulator component emitted an event.
// Components double as the trace level system: enabling a component
// enables all of its events, so `-trace-events cip,fault` is both a
// filter and a verbosity control.
type Component uint8

// Trace components.
const (
	// CompCIP traces Cache Index Predictor activity (policy flips).
	CompCIP Component = iota
	// CompFault traces fault-injection outcomes (detected frames,
	// checksum catches, silent hits).
	CompFault
	// CompDCache traces DRAM-cache structural events (set flushes,
	// quarantines).
	CompDCache
	// CompDRAM traces DRAM device events (row-buffer conflict runs
	// over threshold).
	CompDRAM
	// CompSim traces simulator phase events (measurement start).
	CompSim

	// numComponents bounds the component space.
	numComponents
)

// componentNames spells each component once, for both String and
// ParseComponents.
var componentNames = [numComponents]string{
	CompCIP:    "cip",
	CompFault:  "fault",
	CompDCache: "dcache",
	CompDRAM:   "dram",
	CompSim:    "sim",
}

// String names the component with the spelling ParseComponents accepts.
func (c Component) String() string {
	if c < numComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", uint8(c))
}

// ParseComponents resolves a comma-separated component list ("cip,fault")
// into an enable mask. "all" enables every component; the empty string
// enables none.
func ParseComponents(s string) (uint32, error) {
	var mask uint32
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		switch c := slices.Index(componentNames[:], name); {
		case c >= 0:
			mask |= 1 << c
		case name == "all":
			mask |= 1<<numComponents - 1
		case name != "":
			return 0, fmt.Errorf("obs: unknown trace component %q (have %s, all)",
				name, strings.Join(componentNames[:], ", "))
		}
	}
	return mask, nil
}

// Event is one structured trace record.
type Event struct {
	// Cycle is the simulated cycle the event occurred at.
	Cycle uint64
	// Comp identifies the emitting component.
	Comp Component
	// Kind is the event type within the component (e.g. "flip", "flush").
	Kind string
	// Detail is the human-readable payload.
	Detail string
}

// String renders the event as one timeline line.
func (e Event) String() string {
	return fmt.Sprintf("[%12d] %-6s %-16s %s", e.Cycle, e.Comp, e.Kind, e.Detail)
}

// Tracer is a component-filtered event stream: it hands each event of
// an enabled component to its sink and keeps nothing, so what a trace
// costs in memory is the sink's to bound. Like Recorder it belongs to
// exactly one simulation and is used from that simulation's goroutine
// only. Emission sites guard with Enabled before formatting, so a
// disabled component costs one inlined mask test.
type Tracer struct {
	mask uint32
	sink func(Event)
}

// NewTracer returns a tracer enabling the given components
// (ParseComponents syntax) and passing each of their events to sink.
// The sink runs on the simulation goroutine: keep it fast and
// non-blocking. It panics if sink is nil.
func NewTracer(components string, sink func(Event)) (*Tracer, error) {
	if sink == nil {
		panic("obs: tracer needs a sink")
	}
	mask, err := ParseComponents(components)
	if err != nil {
		return nil, err
	}
	return &Tracer{mask: mask, sink: sink}, nil
}

// Enabled reports whether component c's events reach the sink. Safe
// on a nil receiver (always false), so call sites need no additional
// nil guard.
func (t *Tracer) Enabled(c Component) bool {
	return t != nil && t.mask&(1<<c) != 0
}

// Emitf hands one event to the sink if its component is enabled. The
// format executes only then, so a disabled component never formats.
func (t *Tracer) Emitf(cycle uint64, c Component, kind, format string, args ...any) {
	if !t.Enabled(c) {
		return
	}
	t.sink(Event{Cycle: cycle, Comp: c, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}
