package adversary

import (
	"fmt"
	"io"

	"simsym/internal/dining"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/obs"
	"simsym/internal/selection"
	"simsym/internal/system"
)

// Violation records the first invariant breach of a harness run.
type Violation struct {
	Slot   int    // schedule slot during which the breach appeared
	Step   int    // executed steps at that point
	Reason string // the predicate's message (mc predicate conventions)
}

// Result is the complete, replayable record of one harness run: the
// schedule prefix actually consumed, the fault log, and enough outcome
// state to compare runs byte for byte. Replaying (Schedule, FaultLog)
// over the same program must reproduce an Equal Result — the determinism
// tests and the -replay CLI flags enforce exactly that.
type Result struct {
	Schedule    []int   // every slot's scheduled processor, in order
	FaultLog    []Event // every fault that fired, in slot order
	Steps       int     // steps actually executed (slots minus skips/stutters)
	Slots       int     // schedule slots consumed
	Done        bool    // the harness's convergence predicate held
	Halted      bool    // every processor halted (voluntarily or crashed)
	Violation   *Violation
	Fingerprint string // final machine.Fingerprint()

	// Final is the machine in its final state, for callers that want to
	// inspect beyond the fingerprint (meal counts, selected set). Not
	// part of run identity: Diff/Equal ignore it, Fingerprint covers it.
	Final *machine.Machine
}

// Diff returns "" when the two results describe the identical run, and a
// description of the first divergence otherwise.
func (r *Result) Diff(o *Result) string {
	if len(r.Schedule) != len(o.Schedule) {
		return fmt.Sprintf("schedule length %d vs %d", len(r.Schedule), len(o.Schedule))
	}
	for i := range r.Schedule {
		if r.Schedule[i] != o.Schedule[i] {
			return fmt.Sprintf("schedule slot %d: %d vs %d", i, r.Schedule[i], o.Schedule[i])
		}
	}
	if len(r.FaultLog) != len(o.FaultLog) {
		return fmt.Sprintf("fault log length %d vs %d", len(r.FaultLog), len(o.FaultLog))
	}
	for i := range r.FaultLog {
		if r.FaultLog[i] != o.FaultLog[i] {
			return fmt.Sprintf("fault log entry %d: %v vs %v", i, r.FaultLog[i], o.FaultLog[i])
		}
	}
	switch {
	case r.Steps != o.Steps:
		return fmt.Sprintf("steps %d vs %d", r.Steps, o.Steps)
	case r.Slots != o.Slots:
		return fmt.Sprintf("slots %d vs %d", r.Slots, o.Slots)
	case r.Done != o.Done:
		return fmt.Sprintf("done %v vs %v", r.Done, o.Done)
	case r.Halted != o.Halted:
		return fmt.Sprintf("halted %v vs %v", r.Halted, o.Halted)
	case (r.Violation == nil) != (o.Violation == nil):
		return fmt.Sprintf("violation %v vs %v", r.Violation, o.Violation)
	case r.Violation != nil && *r.Violation != *o.Violation:
		return fmt.Sprintf("violation %+v vs %+v", *r.Violation, *o.Violation)
	case r.Fingerprint != o.Fingerprint:
		return "final fingerprints differ"
	}
	return ""
}

// Harness drives one algorithm run under a streaming scheduler with
// optional fault injection, checking invariants after every executed
// step and recording a replayable trace. Zero values: MaxSlots defaults
// to 10000; nil Faults injects nothing; nil Done never converges early;
// empty predicate slices check nothing.
type Harness struct {
	Sys   *system.System
	Instr system.InstrSet
	Prog  *machine.Program

	Sched  machine.Scheduler
	Faults Layer

	// MaxSlots bounds schedule slots (including skipped ones), so
	// stall-heavy or stuttering runs terminate too.
	MaxSlots int

	// StatePreds are checked after every executed step (and after any
	// slot whose faults fired); TransPreds see (before, after, proc) for
	// every executed step. Both follow package mc's conventions: a
	// non-empty string is a violation message.
	StatePreds []mc.StatePredicate
	TransPreds []mc.TransitionPredicate

	// ProcPreds see (machine, stepping processor) after every executed
	// step — the localized complement of StatePreds for sampled runs at
	// large n, where an O(n) scan per step would dominate the run.
	ProcPreds []mc.ProcPredicate

	// Done is the convergence predicate, checked before every slot and
	// once more at the end.
	Done func(m *machine.Machine) bool

	// Obs, when non-nil, receives structured events: a harness.run phase,
	// one KindSchedStep event per schedule slot (stepped=false for stalls
	// and burned slots), one KindFault event per fault-log entry, and the
	// final verdict. The stream is a deterministic function of the run, so
	// replayed runs produce identical event streams.
	Obs *obs.Recorder
}

const defaultMaxSlots = 10000

// Run executes the harness from a fresh machine to convergence, budget
// exhaustion, scheduler end, or first violation, and returns the
// replayable record. Violations end the run but are not errors; err is
// reserved for broken configurations (bad system, illegal instruction).
func (h *Harness) Run() (*Result, error) {
	e, err := h.Start()
	if err != nil {
		return nil, err
	}
	if _, err := e.Advance(e.budget); err != nil {
		return nil, err
	}
	return e.Finalize(), nil
}

// Exec is an in-flight harness run that can be advanced a bounded number
// of slots at a time — the incremental form of Run that simsymd sessions
// step on demand. The sequence Start → Advance(budget) → Finalize is
// exactly Run: the schedule trace, fault log, predicate checks, and obs
// event stream are identical however the slots are portioned out.
// An Exec is not safe for concurrent use.
type Exec struct {
	h        *Harness
	m        *machine.Machine
	res      *Result
	budget   int // overall MaxSlots budget, fixed at Start
	finished bool
	final    bool // Finalize ran

	// before is the copy of m that TransPreds see as the state before
	// each step, nil when there are none. CloneInto rewrites it in place,
	// so after its first copy the run allocates nothing for it.
	before *machine.Machine
}

// Start builds the machine and begins a run without advancing it.
func (h *Harness) Start() (*Exec, error) {
	m, err := machine.New(h.Sys, h.Instr, h.Prog)
	if err != nil {
		return nil, err
	}
	budget := h.MaxSlots
	if budget <= 0 {
		budget = defaultMaxSlots
	}
	h.Obs.PhaseStart("harness.run")
	e := &Exec{h: h, m: m, res: &Result{}, budget: budget}
	if len(h.TransPreds) > 0 {
		e.before = new(machine.Machine)
	}
	return e, nil
}

// Finished reports whether the run has ended (convergence, budget
// exhaustion, scheduler end, or violation) and further Advance calls
// will consume no slots.
func (e *Exec) Finished() bool { return e.finished }

// Slots returns the schedule slots consumed so far.
func (e *Exec) Slots() int { return e.res.Slots }

// Steps returns the steps actually executed so far.
func (e *Exec) Steps() int { return e.res.Steps }

// Violation returns the first invariant breach, or nil.
func (e *Exec) Violation() *Violation { return e.res.Violation }

// Trace exposes the schedule prefix consumed so far. The slice is the
// live record — callers must copy before mutating.
func (e *Exec) Trace() []int { return e.res.Schedule }

// FaultLog exposes the fault events fired so far. The slice is the live
// record — callers must copy before mutating.
func (e *Exec) FaultLog() []Event { return e.res.FaultLog }

// Advance consumes up to maxSlots further schedule slots, stopping early
// at convergence, overall budget exhaustion, scheduler end, or first
// violation. It reports whether the run has ended; err is reserved for
// broken configurations, which also end the run.
func (e *Exec) Advance(maxSlots int) (finished bool, err error) {
	h, m, res := e.h, e.m, e.res
	consumed := 0
	for !e.finished && consumed < maxSlots {
		if res.Slots >= e.budget {
			e.finished = true
			break
		}
		if h.Done != nil && h.Done(m) {
			res.Done = true
			e.finished = true
			break
		}
		if m.AllHalted() {
			e.finished = true
			break
		}
		pick, ok := h.Sched.Next(m)
		if !ok {
			e.finished = true
			break
		}
		slot := res.Slots
		res.Schedule = append(res.Schedule, pick)
		res.Slots++
		consumed++
		skip := false
		if h.Faults != nil {
			var evs []Event
			skip, evs = h.Faults.Apply(slot, pick, m)
			if len(evs) > 0 {
				res.FaultLog = append(res.FaultLog, evs...)
				if h.Obs.Enabled() {
					for _, ev := range evs {
						h.Obs.Fault(ev.Kind.String(), ev.Slot, ev.Target)
					}
				}
				if v := h.checkState(m, slot, res.Steps); v != nil {
					res.Violation = v
					e.finished = true
					return true, nil
				}
			}
		}
		if skip {
			h.Obs.SchedStep(slot, pick, false)
			continue
		}
		if e.before != nil {
			m.CloneInto(e.before)
		}
		stepped, err := m.StepOrSkip(pick)
		if err != nil {
			e.finished = true
			return true, err
		}
		h.Obs.SchedStep(slot, pick, stepped)
		if !stepped {
			continue // halted/crashed pick: the slot is burned, nothing moved
		}
		res.Steps++
		if v := h.checkState(m, slot, res.Steps); v != nil {
			res.Violation = v
			e.finished = true
			return true, nil
		}
		for _, pred := range h.ProcPreds {
			if msg := pred(m, pick); msg != "" {
				res.Violation = &Violation{Slot: slot, Step: res.Steps, Reason: msg}
				e.finished = true
				return true, nil
			}
		}
		for _, pred := range h.TransPreds {
			if msg := pred(e.before, m, pick); msg != "" {
				res.Violation = &Violation{Slot: slot, Step: res.Steps, Reason: msg}
				e.finished = true
				return true, nil
			}
		}
	}
	if !e.finished && res.Slots >= e.budget {
		e.finished = true
	}
	return e.finished, nil
}

// Finalize ends the run, fills the outcome fields (Done, Halted,
// Fingerprint, Final), emits the closing obs events, and returns the
// replayable record. Idempotent; Advance after Finalize is a no-op.
func (e *Exec) Finalize() *Result {
	h, m, res := e.h, e.m, e.res
	e.finished = true
	if e.final {
		return res
	}
	e.final = true
	res.Halted = m.AllHalted()
	if !res.Done && res.Violation == nil && h.Done != nil {
		res.Done = h.Done(m)
	}
	res.Fingerprint = m.Fingerprint()
	res.Final = m
	if h.Obs.Enabled() {
		h.Obs.Count("harness.runs", 1)
		h.Obs.Count("harness.slots", int64(res.Slots))
		h.Obs.Count("harness.steps", int64(res.Steps))
		h.Obs.Count("harness.faults", int64(len(res.FaultLog)))
		detail := "converged"
		switch {
		case res.Violation != nil:
			detail = res.Violation.Reason
		case !res.Done:
			detail = "run ended without convergence"
		}
		h.Obs.Verdict("harness.run", res.Violation == nil, detail)
		h.Obs.PhaseEnd("harness.run", int64(res.Slots))
	}
	return res
}

func (h *Harness) checkState(m *machine.Machine, slot, step int) *Violation {
	for _, pred := range h.StatePreds {
		if msg := pred(m); msg != "" {
			return &Violation{Slot: slot, Step: step, Reason: msg}
		}
	}
	return nil
}

// Replay re-executes a recorded run: the schedule prefix is replayed
// slot for slot and the fault log re-fired at its recorded slots. The
// returned Result must be Equal to the record; callers treat any Diff as
// a determinism bug.
func (h *Harness) Replay(rec *Result) (*Result, error) {
	h2 := *h
	h2.Sched = FromSlice(rec.Schedule)
	h2.Faults = NewReplayer(rec.FaultLog)
	if rec.Slots > 0 {
		h2.MaxSlots = rec.Slots
	}
	return h2.Run()
}

// RunFaulted installs seeded faults on h, runs it, and writes the
// commands' fault report to out: the run summary, every fault but
// stalls, and the outcome — the violation when one fired, else
// outcome(res). faults is a ParseSpec class list seeded by seed. With
// replay set it also replays the recorded trace and fails unless the
// replay is byte-identical.
func (h *Harness) RunFaulted(out io.Writer, faults string, seed int64, replay bool, outcome func(*Result) string) error {
	spec, err := ParseSpec(faults, seed)
	if err != nil {
		return err
	}
	h.Faults = NewFaults(spec, h.Sys.NumProcs(), h.Sys.NumVars())
	res, err := h.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fault run (seed %d, faults %s): steps=%d slots=%d events=%d done=%v\n",
		seed, faults, res.Steps, res.Slots, len(res.FaultLog), res.Done)
	for _, e := range res.FaultLog {
		if e.Kind != KindStall {
			fmt.Fprintf(out, "  fault %v\n", e)
		}
	}
	if res.Violation != nil {
		fmt.Fprintf(out, "fault run: VIOLATION %s (slot %d, %d-slot trace recorded)\n",
			res.Violation.Reason, res.Violation.Slot, len(res.Schedule))
	} else {
		fmt.Fprintf(out, "fault run: %s\n", outcome(res))
	}
	if !replay {
		return nil
	}
	rep, err := h.Replay(res)
	if err != nil {
		return err
	}
	if d := res.Diff(rep); d != "" {
		return fmt.Errorf("replay diverged: %s", d)
	}
	fmt.Fprintf(out, "replay: byte-identical (%d slots, %d fault events, fingerprint match)\n",
		rep.Slots, len(rep.FaultLog))
	return nil
}

// NewSelectHarness builds a harness running the paper's SELECT program
// for sys under the given model, with the Uniqueness and Stability
// invariants installed and convergence = selection.Settled. The caller
// supplies the scheduler (and optionally Faults / MaxSlots afterwards).
func NewSelectHarness(sys *system.System, instr system.InstrSet, sch system.ScheduleClass, s machine.Scheduler) (*Harness, error) {
	prog, _, err := selection.Select(sys, instr, sch)
	if err != nil {
		return nil, err
	}
	return &Harness{
		Sys:        sys,
		Instr:      instr,
		Prog:       prog,
		Sched:      s,
		StatePreds: []mc.StatePredicate{mc.UniquenessPred},
		TransPreds: []mc.TransitionPredicate{mc.StabilityPred},
		Done:       selection.Settled,
	}, nil
}

// NewDiningHarness builds a harness running the fork-locking philosopher
// program (instruction set L) on a dining table, with the exclusion
// invariant installed and convergence when every philosopher that has
// not crashed has eaten its meals.
func NewDiningHarness(sys *system.System, meals int, s machine.Scheduler) (*Harness, error) {
	prog, err := dining.Program("left", "right", meals)
	if err != nil {
		return nil, err
	}
	excl, err := dining.ExclusionPred(sys, prog)
	if err != nil {
		return nil, err
	}
	mealsS, _ := prog.Lookup("meals")
	done := func(m *machine.Machine) bool {
		for p := range m.NumProcs() {
			v, _ := m.LocalAt(p, mealsS)
			if got, _ := v.(int); !m.Crashed(p) && got < meals {
				return false
			}
		}
		return true
	}
	return &Harness{
		Sys:        sys,
		Instr:      system.InstrL,
		Prog:       prog,
		Sched:      s,
		StatePreds: []mc.StatePredicate{excl},
		Done:       done,
	}, nil
}
