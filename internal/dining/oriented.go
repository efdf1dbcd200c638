package dining

import (
	"errors"
	"fmt"

	"simsym/internal/machine"
	"simsym/internal/system"
)

// Section 8's "Encapsulating Asymmetry", made executable. The paper
// points to [CM84] (Chandy & Misra, "The Drinking Philosophers Problem")
// as the design method: every processor runs the same program and
// carries no explicit identity; the necessary asymmetry lives entirely
// in the initial state, which encodes an acyclic orientation of the
// conflict graph. No two neighboring processors are then similar, and
// Dining Philosophers — impossible on the fully symmetric five-table
// (DP) — becomes solvable with a deterministic uniform program.
//
// This file implements the Chandy–Misra fork protocol on our L machine.
// Each fork variable holds {owner side, dirty bit, per-side request
// bits}; all manipulation happens under the fork's lock. The rules:
//
//   - A hungry philosopher requests forks it does not own.
//   - An owner yields a DIRTY fork when the other side has requested it
//     (the transfer cleans the fork); a CLEAN fork is never yielded.
//   - A philosopher eats when it owns both forks; eating dirties them.
//   - Philosophers service requests whenever they pass over a fork —
//     including after they have finished all their meals.
//
// Initially every fork is dirty and owned per the orientation; the
// acyclic start makes the clean-fork priority order well-founded, which
// is what rules out deadlock (verified here by the model checker rather
// than on paper).

// ErrBadOrientation reports a cyclic or mis-sized orientation.
var ErrBadOrientation = errors.New("dining: orientation must be acyclic and match the table size")

// OrientedTable builds the n-philosopher table of Figure 4 with the
// Chandy–Misra initial state: fork f starts dirty and owned by its
// right-user (philosopher f) when towardRight[f], else by its left-user
// (philosopher f+1 mod n). The orientation must be acyclic: not all
// forks may point the same way around the ring. Processor initial states
// stay uniform — the asymmetry is entirely in the variables.
func OrientedTable(n int, towardRight []bool) (*system.System, error) {
	if len(towardRight) != n {
		return nil, fmt.Errorf("%w: %d forks for %d philosophers", ErrBadOrientation, len(towardRight), n)
	}
	if cyclic(towardRight) {
		return nil, fmt.Errorf("%w: all forks point the same way around the ring", ErrBadOrientation)
	}
	s, err := system.Dining(n)
	if err != nil {
		return nil, err
	}
	for f := 0; f < n; f++ {
		// The user that calls fork f "right" is philosopher f; the one
		// that calls it "left" is philosopher f+1. Owner sides are
		// stored as the name the owner uses.
		if towardRight[f] {
			s.VarInit[f] = "r"
		} else {
			s.VarInit[f] = "l"
		}
	}
	return s, nil
}

func cyclic(towardRight []bool) bool {
	allTrue, allFalse := true, true
	for _, t := range towardRight {
		if t {
			allFalse = false
		} else {
			allTrue = false
		}
	}
	return allTrue || allFalse
}

// SingleFlipOrientation sends every fork counterclockwise except fork 0
// — the minimal acyclic orientation, with one doubly-owning philosopher.
func SingleFlipOrientation(n int) []bool {
	out := make([]bool, n)
	out[0] = true
	return out
}

// forkState is the decoded fork-variable value.
type forkState struct {
	owner string // "l" or "r": the name its owner calls it by
	dirty bool
	reqL  bool // the left-caller wants it
	reqR  bool // the right-caller wants it
}

func decodeFork(raw any) forkState {
	if m, ok := raw.(map[string]any); ok {
		fs := forkState{}
		fs.owner, _ = m["o"].(string)
		fs.dirty, _ = m["d"].(bool)
		fs.reqL, _ = m["rl"].(bool)
		fs.reqR, _ = m["rr"].(bool)
		return fs
	}
	// Initial string form: owner side, dirty, no requests.
	side, _ := raw.(string)
	return forkState{owner: side, dirty: true}
}

func encodeFork(fs forkState) map[string]any {
	return map[string]any{"o": fs.owner, "d": fs.dirty, "rl": fs.reqL, "rr": fs.reqR}
}

// side returns "l"/"r" for the given local fork name.
func side(name system.Name) string {
	if name == "left" {
		return "l"
	}
	return "r"
}

// cmSyms pre-interns the Chandy–Misra program's local slots.
type cmSyms struct {
	meals, eating     machine.Sym
	g, raw, w         machine.Sym
	ownLeft, ownRight machine.Sym
}

func newCMSyms(b *machine.Builder) *cmSyms {
	return &cmSyms{
		meals:    b.Sym("meals"),
		eating:   b.Sym("eating"),
		g:        b.Sym("_g"),
		raw:      b.Sym("_raw"),
		w:        b.Sym("_w"),
		ownLeft:  b.Sym("own_left"),
		ownRight: b.Sym("own_right"),
	}
}

// own returns the ownership slot for the given local fork name.
func (cs *cmSyms) own(name system.Name) machine.Sym {
	if name == "left" {
		return cs.ownLeft
	}
	return cs.ownRight
}

// ChandyMisraProgram returns the uniform Chandy–Misra philosopher
// program for meals meals. After the last meal the philosopher keeps
// servicing fork requests forever (it never halts), so neighbors are
// never starved by a sated peer; run it for a fixed schedule and read
// the "meals" locals.
func ChandyMisraProgram(meals int) (*machine.Program, error) {
	b := machine.NewBuilder()
	cs := newCMSyms(b)
	b.Compute(func(r *machine.Regs) {
		r.Set(cs.meals, 0)
		r.Set(cs.eating, false)
	})

	seq := 0
	b.Label("hungry")
	// One pass over both forks: acquire, request, or yield as the rules
	// dictate; then eat if both are ours.
	for _, name := range []system.Name{"left", "right"} {
		emitForkPass(b, cs, name, true, &seq)
	}
	b.JumpIf(func(r *machine.Regs) bool {
		return r.Get(cs.ownLeft) == true && r.Get(cs.ownRight) == true
	}, "eat")
	b.Jump("hungry")

	b.Label("eat")
	b.Compute(func(r *machine.Regs) { r.Set(cs.eating, true) })
	b.Compute(func(r *machine.Regs) {
		r.Set(cs.eating, false)
		r.Set(cs.meals, r.Int(cs.meals)+1)
	})
	// Dirty both forks (and hand them over if already requested).
	for _, name := range []system.Name{"left", "right"} {
		emitDirtyAndMaybeYield(b, cs, name, &seq)
	}
	b.JumpIf(func(r *machine.Regs) bool {
		return r.Int(cs.meals) >= meals
	}, "service")
	b.Jump("hungry")

	// Sated: service requests forever.
	b.Label("service")
	for _, name := range []system.Name{"left", "right"} {
		emitForkPass(b, cs, name, false, &seq)
	}
	b.Jump("service")

	return b.Build()
}

// freshLabel returns a unique jump label for generated spin loops,
// scoped to one program build via the caller's counter.
func freshLabel(prefix string, seq *int) string {
	*seq++
	return fmt.Sprintf("%s_%d", prefix, *seq)
}

// emitForkPass emits one lock-guarded pass over the named fork.
// If wantIt, the philosopher tries to own the fork (requesting when it
// cannot); either way it yields a dirty requested fork it owns.
func emitForkPass(b *machine.Builder, cs *cmSyms, name system.Name, wantIt bool, seq *int) {
	my := side(name)
	ownS := cs.own(name)
	retry := freshLabel(fmt.Sprintf("pass_%s_%v", name, wantIt), seq)
	b.Label(retry)
	b.Lock(name, "_g")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(cs.g) != true }, retry)
	b.Read(name, "_raw")
	b.Compute(func(r *machine.Regs) {
		fs := decodeFork(r.Get(cs.raw))
		mine := fs.owner == my
		theirReq := (my == "l" && fs.reqR) || (my == "r" && fs.reqL)
		switch {
		case mine && fs.dirty && theirReq:
			// Yield: transfer cleans the fork and consumes the request.
			fs.owner = other(my)
			fs.dirty = false
			fs.reqL, fs.reqR = false, false
			if wantIt {
				// Immediately request it back.
				fs = setReq(fs, my, true)
			}
			r.Set(ownS, false)
		case mine:
			r.Set(ownS, true)
		case wantIt:
			fs = setReq(fs, my, true)
			r.Set(ownS, false)
		default:
			r.Set(ownS, false)
		}
		r.Set(cs.w, encodeFork(fs))
	})
	b.Write(name, "_w")
	b.Unlock(name)
}

// emitDirtyAndMaybeYield marks the named fork dirty after a meal and
// hands it straight to a waiting neighbor.
func emitDirtyAndMaybeYield(b *machine.Builder, cs *cmSyms, name system.Name, seq *int) {
	my := side(name)
	ownS := cs.own(name)
	retry := freshLabel(fmt.Sprintf("dirty_%s", name), seq)
	b.Label(retry)
	b.Lock(name, "_g")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(cs.g) != true }, retry)
	b.Read(name, "_raw")
	b.Compute(func(r *machine.Regs) {
		fs := decodeFork(r.Get(cs.raw))
		fs.dirty = true
		theirReq := (my == "l" && fs.reqR) || (my == "r" && fs.reqL)
		if theirReq {
			fs.owner = other(my)
			fs.dirty = false
			fs.reqL, fs.reqR = false, false
		}
		r.Set(ownS, fs.owner == my)
		r.Set(cs.w, encodeFork(fs))
	})
	b.Write(name, "_w")
	b.Unlock(name)
}

func other(side string) string {
	if side == "l" {
		return "r"
	}
	return "l"
}

func setReq(fs forkState, side string, v bool) forkState {
	if side == "l" {
		fs.reqL = v
	} else {
		fs.reqR = v
	}
	return fs
}
