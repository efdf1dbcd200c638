package adversary

import (
	"fmt"
	"math/rand"
	"strings"

	"simsym/internal/machine"
)

// Kind enumerates the fault classes.
type Kind int

const (
	// KindCrash permanently halts a processor (crash-stop).
	KindCrash Kind = iota + 1
	// KindStall skips a scheduled processor's step for a while (the
	// processor is paused, not failed; its slots are burned).
	KindStall
	// KindDrop forcibly releases a held lock without telling the holder.
	KindDrop
)

func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindStall:
		return "stall"
	case KindDrop:
		return "lock-drop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one injected fault, recorded in slot order. The fault log plus
// the schedule prefix is a complete replayable trace: re-applying the
// events at their recorded slots over the recorded schedule reproduces
// the run byte for byte.
type Event struct {
	Slot   int  // schedule slot the fault fired on
	Kind   Kind // what fired
	Target int  // processor (crash, stall) or variable (lock-drop)
}

func (e Event) String() string {
	return fmt.Sprintf("slot %d: %s %d", e.Slot, e.Kind, e.Target)
}

// Layer decides, once per schedule slot, which faults fire.
// Implementations must be deterministic functions of the slot sequence
// and the machine's evolution: the seeded layer derives every decision
// from per-class RNG streams, the replay layer from a recorded log.
type Layer interface {
	// Apply fires this slot's faults on m (crashes, lock drops mutate the
	// machine directly) and reports whether the slot's granted step must
	// be skipped (a stall), along with the events that fired.
	Apply(slot, pick int, m *machine.Machine) (skip bool, events []Event)
}

// Spec configures seeded random fault injection. Rates are per-slot
// probabilities; each fault class draws from its own seeded stream, so
// enabling one class never perturbs another's timeline — the property
// that makes fault sweeps comparable across configurations.
type Spec struct {
	CrashRate  float64 // per-slot probability of crashing a random live processor
	MaxCrashes int     // cap on crashes; 0 means n-1 (always leave one processor alive)
	CrashSeed  int64

	StallRate float64 // per-slot probability of stalling a random processor
	StallLen  int     // slots a stalled processor stays skipped; 0 means 5
	StallSeed int64

	DropRate float64 // per-slot probability of dropping a random held lock
	DropSeed int64
}

// Seeded returns s with its crash, stall and drop streams seeded from
// seed+1, seed+2 and seed+3: a run seeds its schedule stream with seed
// itself, and no fault stream may start from the schedule's seed or from
// another class's.
func (s Spec) Seeded(seed int64) Spec {
	s.CrashSeed, s.StallSeed, s.DropSeed = seed+1, seed+2, seed+3
	return s
}

// Enabled reports whether any fault class has a non-zero rate.
func (s Spec) Enabled() bool {
	return s.CrashRate > 0 || s.StallRate > 0 || s.DropRate > 0
}

// Faults is the seeded random fault layer.
type Faults struct {
	spec         Spec
	maxCrashes   int
	stallLen     int
	crashRng     *rand.Rand
	stallRng     *rand.Rand
	dropRng      *rand.Rand
	stalledUntil []int // slot before which each processor's steps are skipped
	crashes      int
}

// NewFaults builds a seeded fault layer for a system with nProcs
// processors and nVars variables.
func NewFaults(spec Spec, nProcs, nVars int) *Faults {
	f := &Faults{
		spec:         spec,
		maxCrashes:   spec.MaxCrashes,
		stallLen:     spec.StallLen,
		crashRng:     rand.New(rand.NewSource(spec.CrashSeed)),
		stallRng:     rand.New(rand.NewSource(spec.StallSeed)),
		dropRng:      rand.New(rand.NewSource(spec.DropSeed)),
		stalledUntil: make([]int, nProcs),
	}
	if f.maxCrashes <= 0 {
		f.maxCrashes = nProcs - 1
	}
	if f.stallLen <= 0 {
		f.stallLen = 5
	}
	_ = nVars // victims are drawn from the live machine, which knows its sizes
	return f
}

// Apply implements Layer. Classes draw in a fixed order (crash, stall,
// drop) so the per-class streams stay aligned across runs; only events
// that actually changed something are logged (a crash of an
// already-halted processor or a drop of an unheld lock is not an event),
// which keeps the log sufficient for exact replay.
func (f *Faults) Apply(slot, pick int, m *machine.Machine) (bool, []Event) {
	var evs []Event
	if f.spec.CrashRate > 0 && f.crashRng.Float64() < f.spec.CrashRate {
		victim := f.crashRng.Intn(m.NumProcs())
		if f.crashes < f.maxCrashes && !m.Halted(victim) {
			_ = m.Crash(victim) // victim is in range by construction
			f.crashes++
			evs = append(evs, Event{Slot: slot, Kind: KindCrash, Target: victim})
		}
	}
	if f.spec.StallRate > 0 && f.stallRng.Float64() < f.spec.StallRate {
		victim := f.stallRng.Intn(len(f.stalledUntil))
		f.stalledUntil[victim] = slot + f.stallLen
	}
	if f.spec.DropRate > 0 && f.dropRng.Float64() < f.spec.DropRate {
		v := f.dropRng.Intn(m.NumVars())
		if m.Locked(v) {
			_ = m.DropLock(v)
			evs = append(evs, Event{Slot: slot, Kind: KindDrop, Target: v})
		}
	}
	if pick >= 0 && pick < len(f.stalledUntil) && slot < f.stalledUntil[pick] {
		// Only the skip itself is logged, not the stall window: replay
		// needs to know which slots were burned, nothing more.
		evs = append(evs, Event{Slot: slot, Kind: KindStall, Target: pick})
		return true, evs
	}
	return false, evs
}

// Replayer is the replay fault layer: it re-fires a recorded fault log at
// the recorded slots and injects nothing else.
type Replayer struct {
	log []Event
	i   int
}

// NewReplayer builds a replay layer from a fault log recorded by a prior
// run (Result.FaultLog). Events must be in nondecreasing slot order,
// which is how Harness.Run records them.
func NewReplayer(log []Event) *Replayer {
	return &Replayer{log: log}
}

// Apply implements Layer.
func (r *Replayer) Apply(slot, pick int, m *machine.Machine) (bool, []Event) {
	skip := false
	var evs []Event
	for r.i < len(r.log) && r.log[r.i].Slot == slot {
		e := r.log[r.i]
		r.i++
		switch e.Kind {
		case KindCrash:
			_ = m.Crash(e.Target)
		case KindDrop:
			_ = m.DropLock(e.Target)
		case KindStall:
			skip = true
		}
		evs = append(evs, e)
	}
	return skip, evs
}

// ParseSpec builds a fault Spec from a comma-separated list of class
// names ("crash", "stall", "lockdrop") with default rates, its streams
// Seeded from the given base seed. It is the shared parser behind the
// -faults CLI flags.
func ParseSpec(classes string, seed int64) (Spec, error) {
	var spec Spec
	for _, c := range strings.Split(classes, ",") {
		switch strings.TrimSpace(c) {
		case "":
		case "crash":
			spec.CrashRate = 0.02
			spec.MaxCrashes = 1
		case "stall":
			spec.StallRate = 0.05
			spec.StallLen = 7
		case "lockdrop":
			spec.DropRate = 0.02
		default:
			return Spec{}, fmt.Errorf("adversary: unknown fault class %q (want crash, stall, lockdrop)", c)
		}
	}
	return spec.Seeded(seed), nil
}
