// Package adversary implements the paper's schedule classes as streaming,
// adaptive schedulers (machine.Scheduler), plus a fault-injection harness
// with deterministic replay.
//
// The paper's impossibility proofs are adversary arguments: Theorem 1's
// general-schedule adversary watches the run and withholds steps, and the
// k-bounded-fair class is exactly the restriction that defeats it. The
// finite []int schedules produced by package sched are prefixes of the
// oblivious members of these classes; this package adds the adaptive
// members — schedulers that pick each step after observing the previous
// one land — and a Jepsen-style fault layer (crash, stall, lock-drop)
// whose every run is replayable from (seed, schedule prefix, fault log).
package adversary

import (
	"math/rand"
	"sort"

	"simsym/internal/machine"
	"simsym/internal/sched"
)

// FromSlice streams a precomputed finite schedule, ending when exhausted.
func FromSlice(schedule []int) machine.Scheduler {
	return &generator{buf: schedule, done: true}
}

// generator adapts a finite-schedule generator into a stream by
// regenerating one round-sized chunk at a time. The adapters below stay
// step-for-step identical to their sched counterparts (the equivalence
// tests pin this), so every oblivious schedule class has one streaming
// and one finite spelling.
type generator struct {
	gen  func() ([]int, error)
	buf  []int
	i    int
	done bool
}

func (g *generator) Next(*machine.Machine) (int, bool) {
	if g.i >= len(g.buf) {
		if g.done {
			return 0, false
		}
		buf, err := g.gen()
		if err != nil || len(buf) == 0 {
			g.done = true
			return 0, false
		}
		g.buf, g.i = buf, 0
	}
	p := g.buf[g.i]
	g.i++
	return p, true
}

// RoundRobin streams 0..n-1 forever (sched.RoundRobin as a stream).
func RoundRobin(n int) machine.Scheduler {
	return &generator{gen: func() ([]int, error) { return sched.RoundRobin(n, 1) }}
}

// Shuffled streams one random permutation of 0..n-1 per round
// (sched.ShuffledRounds as a stream; (2n-1)-bounded fair).
func Shuffled(rng *rand.Rand, n int) machine.Scheduler {
	return &generator{gen: func() ([]int, error) { return sched.ShuffledRounds(rng, n, 1) }}
}

// Uniform streams uniform random picks (sched.UniformRandom as a stream;
// fair with probability 1 but not k-bounded for any k). Each pick is one
// draw from rng, as sched.UniformRandom makes it, so a slot allocates
// nothing. n < 1 ends the stream.
func Uniform(rng *rand.Rand, n int) machine.Scheduler { return &uniform{rng: rng, n: n} }

type uniform struct {
	rng *rand.Rand
	n   int
}

func (u *uniform) Next(*machine.Machine) (int, bool) {
	if u.n < 1 {
		return 0, false
	}
	return u.rng.Intn(u.n), true
}

// FLP is the Theorem 1 adversary: an adaptive general-schedule scheduler
// that tries to prevent any run from ever settling with exactly one
// processor selected. Before granting a step it probes it on a copy of
// the machine; a processor whose next step would newly set its selected
// flag is starved while anyone else still has safe steps to take. Two
// escapes close the trap:
//
//   - When every live processor is poised to select, they are stepped
//     back-to-back, so at least two select together and Uniqueness fails.
//     On a symmetric system driven in lockstep the poised set always has
//     this shape: similar processors reach the selection point together
//     (Theorem 2's lock-step argument).
//   - When exactly one processor is poised and nobody else can move, the
//     adversary stops scheduling — a legal general schedule in which
//     selection simply never happens.
//
// Either way no FLP-driven run ends with exactly one selected processor,
// which is Theorem 1's conclusion. The k-bounded-fair enforcer (KBounded)
// is the antidote: it forces the starved processor's step within k slots,
// which is precisely why SELECT is solvable under bounded-fair schedules
// and not under general ones.
type FLP struct {
	next   int   // rotation cursor, so starvation is not also unfairness to low indices
	forced []int // poised processors queued for back-to-back selection
	// probe is the copy each candidate step is tried on, rewritten in
	// place so probing allocates only on its first use.
	probe machine.Machine
}

// NewFLP returns the Theorem 1 adaptive adversary.
func NewFLP() *FLP { return &FLP{} }

// Next implements machine.Scheduler.
func (a *FLP) Next(m *machine.Machine) (int, bool) {
	if len(a.forced) > 0 {
		p := a.forced[0]
		a.forced = a.forced[1:]
		return p, true
	}
	n := m.NumProcs()
	var poised []int
	for t := 0; t < n; t++ {
		p := (a.next + t) % n
		if m.Halted(p) {
			continue
		}
		if a.stepSelects(m, p) {
			poised = append(poised, p)
			continue
		}
		a.next = (p + 1) % n
		return p, true
	}
	if len(poised) >= 2 {
		// Everyone still moving is poised: force them all, selection
		// doubles before anyone can retreat.
		sort.Ints(poised)
		a.forced = append(a.forced, poised[1:]...)
		a.next = (poised[0] + 1) % n
		return poised[0], true
	}
	// Everyone halted, or a lone poised processor: starve it forever.
	return 0, false
}

// stepSelects probes, on the probe copy, whether stepping p would newly
// set p's selected flag. Probe errors count as not poised (the real Step
// will surface the error to the driver).
func (a *FLP) stepSelects(m *machine.Machine, p int) bool {
	if sel, ok := m.Local(p, "selected"); ok && sel == true {
		return false // already selected; this step cannot newly select
	}
	m.CloneInto(&a.probe)
	if err := a.probe.Step(p); err != nil {
		return false
	}
	sel, ok := a.probe.Local(p, "selected")
	return ok && sel == true
}

// KBounded clamps an inner scheduler to k-bounded-fair legality: every
// processor appears in every window of k consecutive emitted steps, so
// sched.IsKBounded holds on every finite prefix. It is the paper's
// bounded-fair schedule class as an *enforcer*: the inner scheduler
// proposes, and the proposal is granted only while granting it keeps every
// other processor's deadline feasible; otherwise the most urgent processor
// is emitted instead (earliest deadline first). Wrapping the FLP adversary
// in KBounded is exactly the paper's dividing line — the starved
// processor gets its step within k slots and SELECT terminates.
//
// Halted processors are still emitted (stepping a halted processor is a
// legal stutter), keeping the emitted stream k-bounded in the schedule
// sense even when parts of the system have finished or crashed. Its
// constructor, NewKBounded, lives with its only callers, the tests.
type KBounded struct {
	inner machine.Scheduler
	k     int
	last  []int // emission step each processor was last named; -1 = never
	t     int   // next emission step index
	ds    []int // scratch: deadlines of the non-picked processors
}

// Next implements machine.Scheduler. It ends the schedule when the inner
// scheduler does.
func (s *KBounded) Next(m *machine.Machine) (int, bool) {
	pick, ok := s.inner.Next(m)
	if !ok {
		return 0, false
	}
	if pick < 0 || pick >= len(s.last) {
		pick = 0 // out-of-range proposals clamp to a legal processor
	}
	p := s.clamp(pick)
	s.last[p] = s.t
	s.t++
	return p, true
}

// deadline is the last emission step at which processor q may next appear
// without opening a k-window that misses it.
func (s *KBounded) deadline(q int) int {
	if s.last[q] < 0 {
		return s.k - 1
	}
	return s.last[q] + s.k
}

// clamp returns pick when emitting it now keeps every other processor
// schedulable by its deadline, and the earliest-deadline processor
// otherwise. Feasibility after emitting pick at step t: the remaining
// processors, served in earliest-deadline order from t+1, must each meet
// their deadline. The enforcer starts feasible (all deadlines k-1, k >= n)
// and both branches preserve feasibility, so by induction every processor
// is always emitted by its deadline and the stream is k-bounded.
func (s *KBounded) clamp(pick int) int {
	s.ds = s.ds[:0]
	for q := range s.last {
		if q != pick {
			s.ds = append(s.ds, s.deadline(q))
		}
	}
	sort.Ints(s.ds)
	feasible := true
	for i, d := range s.ds {
		if d < s.t+1+i {
			feasible = false
			break
		}
	}
	if feasible {
		return pick
	}
	best, bd := 0, s.deadline(0)
	for q := 1; q < len(s.last); q++ {
		if d := s.deadline(q); d < bd {
			best, bd = q, d
		}
	}
	return best
}
