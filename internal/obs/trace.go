package obs

import "fmt"

// EventKind discriminates trace events.
type EventKind uint8

// Trace event kinds.
const (
	// EventInst is one executed instruction (emitted subject to the
	// tracer's sampling stride).
	EventInst EventKind = iota
	// EventRet is an executed near or far return — the gadget boundary
	// of a running ROP chain. Ret events bypass sampling: every one is
	// emitted while a sink is attached.
	EventRet
)

func (k EventKind) String() string {
	switch k {
	case EventInst:
		return "inst"
	case EventRet:
		return "ret"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one execution trace record. Events are plain values so a
// hot emitter allocates nothing.
type Event struct {
	Kind EventKind `json:"kind"`
	// Icount is the emitting CPU's executed-instruction count at the
	// event (1-based: the traced instruction is included).
	Icount uint64 `json:"icount"`
	// PC is the address of the traced instruction.
	PC uint32 `json:"pc"`
	// To is the control-transfer target (EventRet only).
	To uint32 `json:"to,omitempty"`
}

// String renders the event as one stable line; golden-trace files are
// built from these.
func (e Event) String() string {
	if e.Kind == EventRet {
		return fmt.Sprintf("%-4s icount=%d pc=%08x to=%08x", e.Kind, e.Icount, e.PC, e.To)
	}
	return fmt.Sprintf("%-4s icount=%d pc=%08x", e.Kind, e.Icount, e.PC)
}

// TraceSink receives execution events. Implementations must be cheap:
// the emulator calls Emit from its interpreter loop. A sink used from
// multiple CPUs concurrently must synchronize itself; the stock sinks
// below are single-consumer by design (one CPU each).
type TraceSink interface {
	Emit(Event)
}

// CaptureSink keeps the first Max events and counts the rest — the
// golden-trace shape, where the head of the run is the regression
// surface and the tail only matters as a count.
type CaptureSink struct {
	// Max bounds the retained prefix; 0 means unbounded.
	Max int
	// Events is the retained prefix, in emission order.
	Events []Event
	// Total counts every emitted event, retained or not.
	Total uint64
}

// Emit records one event.
func (s *CaptureSink) Emit(e Event) {
	s.Total++
	if s.Max == 0 || len(s.Events) < s.Max {
		s.Events = append(s.Events, e)
	}
}

// FilterSink forwards only events accepted by Keep — e.g. rets inside
// a chain's gadget spans.
type FilterSink struct {
	Keep func(Event) bool
	Next TraceSink
}

// Emit forwards e when Keep accepts it.
func (s *FilterSink) Emit(e Event) {
	if s.Keep == nil || s.Keep(e) {
		s.Next.Emit(e)
	}
}
