// Package obs is the repository's unified observability layer: a
// zero-dependency structured-event and metrics substrate that every
// subsystem — partition refinement (core), the model checker (mc), the
// VM's streaming runs (machine), and the adversary harness — emits into,
// and that the daemons expose through -metrics / -trace-jsonl flags.
//
// The design splits observation into two planes:
//
//   - Events are discrete, typed records (phase start/end, refinement
//     round, state expansion, scheduler step, fault injection, check
//     verdict, stat) delivered in order to a pluggable Sink. Events
//     carry no wall-clock timestamps, so a run's event stream is
//     deterministic and replayable — the golden-file tests depend on
//     that.
//   - Metrics are cumulative: monotonic counters and latency histograms
//     aggregated in a Registry, rendered on demand in Prometheus text
//     exposition format. Durations live here, never in events.
//
// A *Recorder ties the two planes together. Every Recorder method is
// safe on a nil receiver and does nothing there, so instrumented hot
// paths pay a single nil check when observation is off — the facade and
// the internal packages thread a possibly-nil *Recorder unconditionally.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Kind identifies an event type.
type Kind uint8

// Event kinds. The taxonomy is deliberately small: one kind per
// subsystem activity the paper's experiments need to see, not one per
// call site.
const (
	// KindPhaseStart marks entry into a named unit of work
	// (e.g. "core.similarity", "mc.check", "harness.run").
	KindPhaseStart Kind = iota + 1
	// KindPhaseEnd marks completion of a named phase; A counts the
	// phase's primary work items (rounds, states, slots).
	KindPhaseEnd
	// KindRefineRound reports one partition-refinement round (worklist /
	// naive drivers) or splitter iteration (Hopcroft): A=round,
	// B=classes after the round, C=classes split this round.
	KindRefineRound
	// KindStateExpansion reports model-checker progress, one event per
	// completed BFS level: A=states explored, B=depth, C=transitions.
	KindStateExpansion
	// KindSchedStep reports one scheduler-driven machine step:
	// A=slot (or step index), B=processor, C=1 if the step executed
	// (0 for a burned slot: halted or crashed pick).
	KindSchedStep
	// KindFault reports one injected fault: Name is the fault class
	// ("crash", "stall", "lockdrop"), A=slot, B=target index.
	KindFault
	// KindVerdict reports a check's outcome: Name is the check,
	// A=1 for pass / 0 for violation, Detail carries the reason.
	KindVerdict
	// KindStat reports a named point statistic: A=value.
	KindStat
	// KindSample reports statistical-checker progress, one event per
	// merged sampling round: Name is the engine, A=trials merged so
	// far, B=violations among them, C=the stopping-rule target sample
	// count. Sample events are deterministic: trials are seeded per
	// index and merged in index order, so the stream depends only on
	// (seed, options), never on worker interleaving or wall-clock time.
	KindSample

	// KindRelabel reports one incremental relabel event of a dynamic
	// similarity engine: Name is the driver, A=slots touched by the
	// mutation, B=classes split, C=classes merged. Detail carries the
	// event kind ("join", "leave", "crash", ...) when known. Like all
	// events the stream is deterministic: it depends only on the
	// mutation trace, never on timing.
	KindRelabel
)

var kindNames = map[Kind]string{
	KindPhaseStart:     "phase_start",
	KindPhaseEnd:       "phase_end",
	KindRefineRound:    "refine_round",
	KindStateExpansion: "state_expansion",
	KindSchedStep:      "sched_step",
	KindFault:          "fault",
	KindVerdict:        "verdict",
	KindStat:           "stat",
	KindSample:         "sample",
	KindRelabel:        "relabel",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString inverts Kind.String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return k, true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the string name produced by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("obs: kind must be a JSON string, got %s", data)
	}
	got, ok := KindFromString(string(data[1 : len(data)-1]))
	if !ok {
		return fmt.Errorf("obs: unknown event kind %s", data)
	}
	*k = got
	return nil
}

// Event is one structured observation. The payload fields A, B, C are
// kind-specific (documented on each Kind); unused fields are zero.
// Events are plain values: sinks may retain them.
type Event struct {
	// Seq is the recorder-assigned sequence number, starting at 1.
	// Within one goroutine, later emissions always carry larger Seq.
	Seq uint64 `json:"seq"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Name scopes the event (phase name, fault class, check name).
	Name string `json:"name,omitempty"`
	// A, B, C are the kind-specific numeric payload.
	A int64 `json:"a,omitempty"`
	B int64 `json:"b,omitempty"`
	C int64 `json:"c,omitempty"`
	// Detail is a human-readable elaboration (verdict reasons).
	Detail string `json:"detail,omitempty"`
}

// Sink receives emitted events. Emit must be safe for concurrent use;
// it must not block indefinitely (recorders sit on hot paths).
type Sink interface {
	Emit(Event)
}

// Discard is the no-op sink: every event is dropped.
var Discard Sink = discard{}

type discard struct{}

func (discard) Emit(Event) {}

// Recorder is the handle instrumented code emits through. A nil
// *Recorder is valid and records nothing; Enabled distinguishes the two
// without branching at every call site. Recorders are safe for
// concurrent use.
type Recorder struct {
	sink Sink
	reg  *Registry
	seq  atomic.Uint64
}

// New returns a Recorder emitting events to sink (Discard when nil)
// with a fresh metrics Registry.
func New(sink Sink) *Recorder {
	if sink == nil {
		sink = Discard
	}
	return &Recorder{sink: sink, reg: NewRegistry()}
}

// Enabled reports whether the recorder records anything; instrumented
// code may use it to skip building expensive payloads.
func (r *Recorder) Enabled() bool { return r != nil }

// Metrics returns the recorder's metrics registry (nil on a nil
// recorder).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Emit assigns the next sequence number and delivers e to the sink.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	e.Seq = r.seq.Add(1)
	r.sink.Emit(e)
}

// PhaseStart emits a KindPhaseStart event for name.
func (r *Recorder) PhaseStart(name string) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindPhaseStart, Name: name})
}

// PhaseEnd emits a KindPhaseEnd event for name; items counts the
// phase's primary work units.
func (r *Recorder) PhaseEnd(name string, items int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindPhaseEnd, Name: name, A: items})
}

// RefineRound emits one partition-refinement round under the named
// driver.
func (r *Recorder) RefineRound(driver string, round, classes, splits int) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindRefineRound, Name: driver, A: int64(round), B: int64(classes), C: int64(splits)})
}

// Relabel emits one incremental-relabel event: touched slots, splits,
// and merges for a single topology mutation, with the mutation kind in
// Detail.
func (r *Recorder) Relabel(driver string, touched, splits, merges int, event string) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindRelabel, Name: driver, A: int64(touched), B: int64(splits), C: int64(merges), Detail: event})
}

// StateExpansion emits one model-checker progress event.
func (r *Recorder) StateExpansion(engine string, states int, depth int, transitions int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindStateExpansion, Name: engine, A: int64(states), B: int64(depth), C: transitions})
}

// SchedStep emits one scheduler-driven step of processor proc at slot.
func (r *Recorder) SchedStep(slot, proc int, stepped bool) {
	if r == nil {
		return
	}
	c := int64(0)
	if stepped {
		c = 1
	}
	r.Emit(Event{Kind: KindSchedStep, A: int64(slot), B: int64(proc), C: c})
}

// Fault emits one injected fault of the given class against target.
func (r *Recorder) Fault(class string, slot, target int) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindFault, Name: class, A: int64(slot), B: int64(target)})
}

// Verdict emits a check outcome; detail elaborates failures.
func (r *Recorder) Verdict(check string, ok bool, detail string) {
	if r == nil {
		return
	}
	a := int64(0)
	if ok {
		a = 1
	}
	r.Emit(Event{Kind: KindVerdict, Name: check, A: a, Detail: detail})
}

// Stat emits a named point statistic.
func (r *Recorder) Stat(name string, v int64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindStat, Name: name, A: v})
}

// SampleRound emits one merged statistical-checker round for the named
// engine: trials merged so far, violations among them, and the
// stopping-rule target.
func (r *Recorder) SampleRound(engine string, samples, violations, target int) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindSample, Name: engine, A: int64(samples), B: int64(violations), C: int64(target)})
}

// Count adds delta to the named monotonic counter.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.reg.Counter(name).Add(delta)
}

// Observe records one latency sample into the named histogram.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.reg.Histogram(name).Observe(d)
}
