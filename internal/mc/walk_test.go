package mc

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"simsym/internal/autgrp"
	"simsym/internal/machine"
	"simsym/internal/system"
)

// exactState spells m's state without its windows: every component's
// value (machine.Component), which holds every frame and every
// subvalue slot.
func exactState(m *machine.Machine) string {
	buf := make([]byte, 0, 256)
	for c := range m.NumProcs() + m.NumVars() {
		x := m.Component(c)
		buf = strconv.AppendInt(append(buf, '|'), int64(x.Frame.PC), 10)
		buf = strconv.AppendBool(append(buf, ' '), x.Frame.Halted)
		buf = strconv.AppendBool(append(buf, ' '), x.Locked)
		buf = appendExact(append(buf, ' '), x.Val)
		for _, v := range append(x.Frame.Locals, x.Sub...) {
			buf = appendExact(append(buf, ' '), v)
		}
	}
	return string(buf)
}

// appendExact appends an unambiguous spelling of v, a value a test
// program stores.
func appendExact(buf []byte, v any) []byte {
	switch v := v.(type) {
	case nil:
		return append(buf, 'n')
	case int:
		return strconv.AppendInt(append(buf, 'i'), int64(v), 10)
	case string:
		return strconv.AppendQuote(append(buf, 's'), v)
	case machine.PeekResult:
		buf = strconv.AppendQuote(append(buf, 'p'), v.Init)
		for _, e := range v.Values {
			buf = appendExact(append(buf, ','), e)
		}
		return append(buf, ';')
	}
	return fmt.Appendf(buf, "%#v", v) // bools, uint64s, the unset sentinel
}

// exactWalk is the package's independent oracle for the checker: what a
// breadth-first walk over the states reachable from a factory's machine
// finds, keyed on exactState and never on a window, so it shares no
// encoding, table or memo with the checker. It visits states and
// processors in the checker's order.
type exactWalk struct {
	states, orbits                    int
	transitions, selfLoops, dedupHits int64
	// violation is the reason the state predicate gave for the first
	// flagged state, at depth (its schedule's length); the walk stops
	// there, as the checker does. It is "" when no state is flagged.
	violation string
	depth     int
	// truncated is set when the walk passed its state cap.
	truncated bool
	// succ maps exactState(s) + "/" + p to the exactState of the state a
	// step of p reaches from s.
	succ map[string]string
	// unflagged holds the states the stuck predicate leaves unflagged.
	unflagged map[string]bool
}

// walkExact walks the states reachable from the factory's machine, at
// most maxStates of them when maxStates > 0. pred, when non-nil, is the
// state predicate whose shallowest violation the walk finds; stuck, when
// non-nil, is a StuckBad predicate, and the walk notes the states it
// leaves unflagged (see stuckStates). When sys is
// non-nil the walk also counts orbits under its automorphisms, carrying
// each state's images as explicitly permuted machines: the image of a
// state under an automorphism steps processor ProcPerm[p] where the
// state steps p.
func walkExact(t *testing.T, factory func() (*machine.Machine, error), pred, stuck StatePredicate, sys *system.System, maxStates int) *exactWalk {
	t.Helper()
	var auts []system.Permutation
	if sys != nil {
		var err error
		if auts, err = autgrp.Automorphisms(sys, autgrp.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	type state struct {
		m    *machine.Machine
		key  string
		imgs []*machine.Machine // imgs[k] is m's image under auts[k]
	}
	w := &exactWalk{succ: map[string]string{}, unflagged: map[string]bool{}}
	root := state{}
	var err error
	if root.m, err = factory(); err != nil {
		t.Fatal(err)
	}
	root.key = exactState(root.m)
	for range auts {
		root.imgs = append(root.imgs, root.m.Clone())
	}
	seen := map[string]bool{root.key: true}
	reps := map[string]bool{}
	w.states = 1
	flag := func(s state, depth int) bool {
		if stuck != nil && stuck(s.m) == "" {
			w.unflagged[s.key] = true
		}
		if pred != nil {
			if w.violation = pred(s.m); w.violation != "" {
				w.depth = depth
			}
		}
		return w.violation != ""
	}
	if flag(root, 0) {
		return w
	}
	for depth, level := 1, []state{root}; len(level) > 0; depth++ {
		var next []state
		for _, s := range level {
			if len(auts) > 0 {
				least := ""
				for i, img := range s.imgs {
					if k := exactState(img); i == 0 || k < least {
						least = k
					}
				}
				reps[least] = true
			}
			for p := 0; p < s.m.NumProcs(); p++ {
				child := state{m: s.m.Clone()}
				if err := child.m.Step(p); err != nil {
					t.Fatal(err)
				}
				child.key = exactState(child.m)
				w.succ[s.key+"/"+strconv.Itoa(p)] = child.key
				switch {
				case child.key == s.key:
					w.selfLoops++
					continue
				case seen[child.key]:
					w.transitions++
					w.dedupHits++
					continue
				}
				w.transitions++
				if maxStates > 0 && w.states == maxStates {
					w.truncated = true
					return w
				}
				seen[child.key] = true
				w.states++
				for i, a := range auts {
					child.imgs = append(child.imgs, s.imgs[i].Clone())
					if err := child.imgs[i].Step(a.ProcPerm[p]); err != nil {
						t.Fatal(err)
					}
				}
				if flag(child, depth) {
					return w
				}
				next = append(next, child)
			}
		}
		level = next
	}
	w.orbits = len(reps)
	return w
}

// assertCounts fails unless res, a closed check without symmetry
// reduction, counts what the walk counted.
func (w *exactWalk) assertCounts(t *testing.T, res *Result) {
	t.Helper()
	st := res.Stats
	if !res.Complete || res.StatesExplored != w.states || st.Transitions != w.transitions || st.SelfLoops != w.selfLoops || st.DedupHits != w.dedupHits {
		t.Fatalf("Check counts states=%d transitions=%d self-loops=%d dedup hits=%d (complete=%v); the walk %d/%d/%d/%d",
			res.StatesExplored, st.Transitions, st.SelfLoops, st.DedupHits, res.Complete, w.states, w.transitions, w.selfLoops, w.dedupHits)
	}
}

// stuckStates returns the states of a whole walk from which no path
// reaches a state its stuck predicate leaves unflagged: every state but
// those a reverse search over succ reaches from the unflagged ones. A
// terminal component all of whose states are flagged is exactly what
// such a state's reachable states contain, so Check reports a stuck
// violation exactly when this set is not empty.
func (w *exactWalk) stuckStates() map[string]bool {
	into := map[string][]string{}
	stuck := map[string]bool{}
	for k, to := range w.succ {
		from := k[:strings.LastIndexByte(k, '/')]
		into[to] = append(into[to], from)
		stuck[from] = true
	}
	var queue []string
	for s := range w.unflagged {
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if stuck[s] {
			delete(stuck, s)
			queue = append(queue, into[s]...)
		}
	}
	return stuck
}

// walkPreds are the state predicates FuzzCheckMatchesWalk picks from.
// Every one but the last is invariant under the system's automorphisms,
// so symmetric runs pick from walkPreds[:len(walkPreds)-1].
var walkPreds = []StatePredicate{
	nil,
	UniquenessPred,
	func(m *machine.Machine) string {
		if m.AllHalted() {
			return "all halted"
		}
		return ""
	},
	func(m *machine.Machine) string {
		for p := range m.NumProcs() {
			if m.Halted(p) {
				return fmt.Sprintf("processor %d halted", p)
			}
		}
		return ""
	},
	func(m *machine.Machine) string {
		for v := range m.NumVars() {
			if m.Locked(v) {
				return fmt.Sprintf("variable %d locked", v)
			}
		}
		return ""
	},
	func(m *machine.Machine) string {
		if a, _ := m.Local(m.NumProcs()-1, "a"); a == 2 {
			return "the last processor's a reached 2"
		}
		return ""
	},
}

// Fixtures FuzzCheckMatchesWalk can pick instead of a random system and
// program; every other fixture byte picks a random one.
const (
	fixRandom = iota
	fixFig1Posts
	fixFig2Posts
	fixWindowCollision
	fixAliasedPosts
	fixCrossedLocks
	fixSlotFallback
)

// stuckPreds are the StuckBad predicates FuzzCheckMatchesWalk picks
// from: none, the automorphism-invariant walkPreds and NotAllHalted.
var stuckPreds = append(slices.Clone(walkPreds[:len(walkPreds)-1]), NotAllHalted)

// walkFixture builds the system and program the fuzz input names.
func walkFixture(t *testing.T, fixture uint8, sysSeed int64, procs, vars, names uint8, progSeed int64, instr uint8, length uint8) (*system.System, system.InstrSet, *machine.Program) {
	t.Helper()
	build := func(f func(b *machine.Builder)) *machine.Program {
		b := machine.NewBuilder()
		f(b)
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	switch fixture {
	case fixFig1Posts:
		return system.Fig1(), system.InstrQ, build(countPosts)
	case fixFig2Posts:
		return system.Fig2(), system.InstrQ, build(countPosts)
	case fixWindowCollision:
		ring, err := system.Ring(2)
		if err != nil {
			t.Fatal(err)
		}
		return ring, system.InstrL, build(func(b *machine.Builder) {
			for i := 0; i < 59; i++ {
				b.Jump(fmt.Sprint("j", i))
				b.Label(fmt.Sprint("j", i))
			}
			b.Write("left", "init")
			b.Halt()
		})
	case fixAliasedPosts:
		// p1 gives v1 both names, so its post under a rewrites both of its
		// window's slots, where p0's rewrites one: from equal frames and
		// equal variables the two posts reach different frames.
		sys := &system.System{
			Names:    []system.Name{"a", "b"},
			ProcIDs:  []string{"p0", "p1"},
			VarIDs:   []string{"v0", "v1"},
			Nbr:      [][]int{{0, 1}, {1, 1}},
			ProcInit: []string{"0", "0"},
			VarInit:  []string{"0", "0"},
		}
		return sys, system.InstrQ, build(func(b *machine.Builder) {
			b.Post("a", "init")
			b.Peek("b", "x")
			b.Post("b", "x")
			b.Halt()
		})
	case fixCrossedLocks:
		return crossedLocks(), system.InstrL, build(spinLockBoth)
	case fixSlotFallback:
		sys := &system.System{
			Names:    []system.Name{"a"},
			ProcIDs:  []string{"reader", "bumper"},
			VarIDs:   []string{"v"},
			Nbr:      [][]int{{0}, {0}},
			ProcInit: []string{"r", "w"},
			VarInit:  []string{"0"},
		}
		return sys, system.InstrS, build(readAndBump)
	}
	sys, err := system.RandomSystem(rand.New(rand.NewSource(sysSeed)), system.RandomOpts{
		Procs: 1 + int(procs%4), Vars: 1 + int(vars%3), Names: 1 + int(names%2), InitStates: 2,
	})
	if err != nil {
		t.Skip(err)
	}
	set := []system.InstrSet{system.InstrS, system.InstrL, system.InstrQ}[instr%3]
	prog, err := machine.RandomProgram(rand.New(rand.NewSource(progSeed)), sys.Names, set, 1+int(length%8))
	if err != nil {
		t.Fatal(err)
	}
	return sys, set, prog
}

// readAndBump runs by init value: the reader ("r") reads a forever,
// from one frame at the read, while the bumper ("w") writes 1, 2, 1 and
// 3 to a and halts, so the reader's read slot sees a take four values
// and return to 1 once.
//
//	if init = "w" goto bump; x := 0; loop: read a → x; x := 0; goto loop
//	bump: for v in 1, 2, 1, 3 { n := v; write a ← n }; halt
func readAndBump(b *machine.Builder) {
	x, n := b.Sym("x"), b.Sym("n")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(machine.SymInit) == "w" }, "bump")
	b.Compute(func(r *machine.Regs) { r.Set(x, 0) })
	b.Label("loop")
	b.Read("a", "x")
	b.Compute(func(r *machine.Regs) { r.Set(x, 0) })
	b.Jump("loop")
	b.Label("bump")
	for _, v := range []int{1, 2, 1, 3} {
		b.Compute(func(r *machine.Regs) { r.Set(n, v) })
		b.Write("a", "n")
	}
	b.Halt()
}

// walkCap is the most states a random input's walk may reach before
// FuzzCheckMatchesWalk skips it; fixtures are walked whole.
const walkCap = 4000

// FuzzCheckMatchesWalk checks the checker against exactWalk on a random
// system of at most 4 processors, 3 variables and 2 names (a processor
// may give one variable two names) running a random S, L or Q program,
// or on a fixture. The input also picks a state predicate, a StuckBad
// predicate (stuckPreds), whether a transition predicate runs and
// whether Check reduces by symmetry; the transition predicate checks
// every step the checker shows it against the walk's. Check must find a
// state-predicate violation exactly when the walk does and give a
// witness that a fresh machine replays to a flagged state at the walk's
// depth. Without one it must count the walk's states, transitions,
// self-loops and dedup hits, or under symmetry reduction explore one
// state per orbit the walk counts, and report a stuck violation exactly
// when the walk has states that cannot reach one StuckBad leaves
// unflagged, with a witness that replays to such a state. Symmetric runs
// use only the automorphism-invariant predicates.
func FuzzCheckMatchesWalk(f *testing.F) {
	notAllHalted := uint8(len(stuckPreds) - 1)
	for _, fix := range []uint8{fixFig1Posts, fixFig2Posts, fixWindowCollision, fixAliasedPosts} {
		f.Add(fix, int64(0), uint8(0), uint8(0), uint8(0), int64(0), uint8(0), uint8(0), uint8(0), uint8(0), true, false)
	}
	f.Add(uint8(fixFig1Posts), int64(0), uint8(0), uint8(0), uint8(0), int64(0), uint8(0), uint8(0), uint8(3), uint8(0), false, false)
	for _, seed := range []int64{1, 3, 4, 5, 8, 9, 10, 13} {
		f.Add(uint8(fixRandom), seed, uint8(seed), uint8(seed%2), uint8(1), seed, uint8(seed), uint8(5), uint8(seed), uint8(0), seed%2 == 0, false)
	}
	f.Add(uint8(fixFig2Posts), int64(0), uint8(0), uint8(0), uint8(0), int64(0), uint8(0), uint8(0), uint8(0), uint8(0), true, true)
	f.Add(uint8(fixFig2Posts), int64(0), uint8(0), uint8(0), uint8(0), int64(0), uint8(0), uint8(0), uint8(3), uint8(0), false, true)
	for _, seed := range []int64{34, 86, 126} { // groups of order 6, 2, 6 under L, Q, S
		f.Add(uint8(fixRandom), seed, uint8(seed), uint8(seed%2), uint8(1), seed, uint8(seed), uint8(5), uint8(seed), uint8(0), seed == 86, true)
	}
	// StuckBad seeds: the crossed locks' reachable deadlock, where every
	// state is stuck under NotAllHalted and only those with a halted
	// processor under "processor halted", and Fig1's counting program,
	// whose processors can always all halt.
	for _, sym := range []bool{false, true} {
		for _, stuck := range []uint8{notAllHalted, 3} {
			f.Add(uint8(fixCrossedLocks), int64(0), uint8(0), uint8(0), uint8(0), int64(0), uint8(0), uint8(0), uint8(0), stuck, !sym, sym)
		}
		f.Add(uint8(fixFig1Posts), int64(0), uint8(0), uint8(0), uint8(0), int64(0), uint8(0), uint8(0), uint8(0), notAllHalted, false, sym)
	}
	// A step slot whose variable takes four values (TestStepSlotFallback).
	f.Add(uint8(fixSlotFallback), int64(0), uint8(0), uint8(0), uint8(0), int64(0), uint8(0), uint8(0), uint8(0), uint8(0), true, false)
	f.Fuzz(func(t *testing.T, fixture uint8, sysSeed int64, procs, vars, names uint8, progSeed int64, instr, length, predIdx, stuckIdx uint8, trans, sym bool) {
		sys, set, prog := walkFixture(t, fixture, sysSeed, procs, vars, names, progSeed, instr, length)
		factory := func() (*machine.Machine, error) { return machine.New(sys, set, prog) }
		replay := func(schedule []int) *machine.Machine {
			m, err := factory()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(schedule); err != nil {
				t.Fatal(err)
			}
			return m
		}
		preds, orbitsOf := walkPreds, (*system.System)(nil)
		if sym {
			preds, orbitsOf = walkPreds[:len(walkPreds)-1], sys
		}
		pred := preds[int(predIdx)%len(preds)]
		stuck := stuckPreds[int(stuckIdx)%len(stuckPreds)]
		limit := walkCap
		if fixture >= fixFig1Posts && fixture <= fixSlotFallback {
			limit = 0
		}
		w := walkExact(t, factory, pred, stuck, orbitsOf, limit)
		if w.truncated {
			t.Skipf("the walk passed %d states", walkCap)
		}
		opts := Options{SymmetryReduce: sym, StuckBad: stuck}
		if pred != nil {
			opts.StatePreds = []StatePredicate{pred}
		}
		var steps int64
		var bad string
		if trans {
			opts.TransPreds = []TransitionPredicate{func(before, after *machine.Machine, p int) string {
				steps++
				k := exactState(before) + "/" + strconv.Itoa(p)
				if want, ok := w.succ[k]; (!ok || want != exactState(after)) && bad == "" {
					bad = fmt.Sprintf("the checker's step of %d from %s reaches %s; the walk's %s", p, exactState(before), exactState(after), want)
				}
				return ""
			}}
		}
		res, err := Check(factory, opts)
		if err != nil {
			t.Fatal(err)
		}
		if bad != "" {
			t.Fatal(bad)
		}
		var stuckAt map[string]bool
		if stuck != nil && w.violation == "" {
			stuckAt = w.stuckStates()
		}
		if (res.Violation != nil) != (w.violation != "" || len(stuckAt) > 0) {
			t.Fatalf("Check found %+v; the walk found %q and %d states that cannot reach one StuckBad leaves unflagged", res.Violation, w.violation, len(stuckAt))
		}
		if w.violation == "" {
			switch {
			case sym && (!res.Complete || res.StatesExplored != w.orbits):
				t.Fatalf("Check explored %d states under symmetry reduction (complete=%v); the walk counts %d orbits", res.StatesExplored, res.Complete, w.orbits)
			case !sym:
				w.assertCounts(t, res)
				if trans && steps != w.transitions+w.selfLoops {
					t.Fatalf("the transition predicate saw %d steps, want %d", steps, w.transitions+w.selfLoops)
				}
			}
			if res.Violation != nil {
				if k := exactState(replay(res.Violation.Schedule)); !strings.HasPrefix(res.Violation.Reason, "stuck: ") || !stuckAt[k] {
					t.Fatalf("the stuck witness %v (%q) replays to %s, which can reach a state StuckBad leaves unflagged",
						res.Violation.Schedule, res.Violation.Reason, k)
				}
			}
			return
		}
		m := replay(res.Violation.Schedule)
		if len(res.Violation.Schedule) != w.depth || pred(m) == "" {
			t.Fatalf("the witness %v replays to a state at depth %d that the predicate flags %q; the walk's is at depth %d",
				res.Violation.Schedule, len(res.Violation.Schedule), pred(m), w.depth)
		}
	})
}
