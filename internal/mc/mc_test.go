package mc

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/system"
)

func factoryFor(t *testing.T, s *system.System, instr system.InstrSet, build func(b *machine.Builder)) func() (*machine.Machine, error) {
	t.Helper()
	b := machine.NewBuilder()
	build(b)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return func() (*machine.Machine, error) {
		return machine.New(s, instr, prog)
	}
}

// naiveClaim is the Theorem 1 strawman: an S program that reads the shared
// variable, claims leadership if it looks untaken, then writes a marker.
// Read and claim are separate atomic steps, so two processors can both
// read "untaken" before either writes — the model checker must find that
// schedule (this is the FLP-flavored adversary of Theorem 1).
func naiveClaim(b *machine.Builder) {
	x, selected, mark := b.Sym("x"), b.Sym("selected"), b.Sym("mark")
	b.Read("n", "x")
	b.Compute(func(r *machine.Regs) {
		if r.Get(x) == "0" {
			r.Set(selected, true)
			r.Set(mark, "taken")
		} else {
			r.Set(mark, "seen")
		}
	})
	b.Write("n", "mark")
	b.Halt()
}

func TestTheorem1NaiveSelectionViolatesUniqueness(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, naiveClaim), Options{
		StatePreds: []StatePredicate{UniquenessPred},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("model checker must find the double-selection schedule")
	}
	if !strings.Contains(res.Violation.Reason, "uniqueness") {
		t.Errorf("reason = %q", res.Violation.Reason)
	}
	if len(res.Violation.Schedule) == 0 {
		t.Error("violation should carry a witness schedule")
	}
	// Replay the witness schedule and confirm it really double-selects.
	m, err := factoryFor(t, system.Fig1(), system.InstrS, naiveClaim)()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Violation.Schedule {
		if err := m.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	if sel := m.SelectedProcs(); len(sel) < 2 {
		t.Errorf("replayed schedule selects %v, want 2 processors", sel)
	}
}

// lockClaim is the correct L selection for Figure 1: the lock race picks
// exactly one winner under every schedule.
func lockClaim(b *machine.Builder) {
	got, selected := b.Sym("got"), b.Sym("selected")
	b.Lock("n", "got")
	b.Compute(func(r *machine.Regs) {
		if r.Get(got) == true {
			r.Set(selected, true)
		}
	})
	b.Halt()
}

func TestLockSelectionSafeUnderAllSchedules(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrL, lockClaim), Options{
		StatePreds: []StatePredicate{UniquenessPred},
		TransPreds: []TransitionPredicate{StabilityPred},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("lock-based selection should be safe, got %s (schedule %v)",
			res.Violation.Reason, res.Violation.Schedule)
	}
	if !res.Complete {
		t.Error("tiny state space should be fully explored")
	}
}

func TestStabilityViolationDetected(t *testing.T) {
	// A program that selects then deselects must be flagged.
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, func(b *machine.Builder) {
		selected := b.Sym("selected")
		b.Compute(func(r *machine.Regs) { r.Set(selected, true) })
		b.Compute(func(r *machine.Regs) { r.Set(selected, false) })
		b.Halt()
	}), Options{
		TransPreds: []TransitionPredicate{StabilityPred},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || !strings.Contains(res.Violation.Reason, "stability") {
		t.Fatalf("violation = %+v, want stability", res.Violation)
	}
}

// crossedLocks builds the minimal deadlock system: two processors locking
// the same two variables in opposite orders.
func crossedLocks() *system.System {
	return &system.System{
		Names:    []system.Name{"a", "b"},
		ProcIDs:  []string{"p0", "p1"},
		VarIDs:   []string{"v0", "v1"},
		Nbr:      [][]int{{0, 1}, {1, 0}},
		ProcInit: []string{"0", "0"},
		VarInit:  []string{"0", "0"},
	}
}

func spinLockBoth(b *machine.Builder) {
	ga, gb := b.Sym("ga"), b.Sym("gb")
	b.Label("la")
	b.Lock("a", "ga")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(ga) != true }, "la")
	b.Label("lb")
	b.Lock("b", "gb")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(gb) != true }, "lb")
	b.Halt()
}

func TestDeadlockDetection(t *testing.T) {
	res, err := Check(factoryFor(t, crossedLocks(), system.InstrL, spinLockBoth), Options{
		StuckBad: func(m *machine.Machine) string {
			if !m.AllHalted() {
				return "processors spinning forever (deadlock)"
			}
			return ""
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || !strings.Contains(res.Violation.Reason, "deadlock") {
		t.Fatalf("violation = %+v, want deadlock", res.Violation)
	}
}

// grabAndKeep takes the left fork, then the right, spinning on each, and
// halts still holding both.
func grabAndKeep(b *machine.Builder) {
	gl, gr := b.Sym("gl"), b.Sym("gr")
	b.Label("left")
	b.Lock("left", "gl")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(gl) != true }, "left")
	b.Label("right")
	b.Lock("right", "gr")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(gr) != true }, "right")
	b.Halt()
}

// TestStuckComponentWithHaltedProcs: three philosophers that halt
// holding both forks leave their neighbours spinning forever, so the
// terminal stuck components mix halted processors, whose successor slots
// hold the self-loop mark, with spinning ones. The verdict, witness and
// counts are the ones the checker gave when it kept successors in a
// variable-length []int, with and without symmetry reduction.
func TestStuckComponentWithHaltedProcs(t *testing.T) {
	s, err := system.Dining(3)
	if err != nil {
		t.Fatal(err)
	}
	factory := factoryFor(t, s, system.InstrL, grabAndKeep)
	for _, tc := range []struct {
		name        string
		sym         bool
		states      int
		transitions int64
		selfLoops   int64
	}{
		{"seq", false, 230, 645, 45},
		{"sym", true, 80, 225, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Check(factory, Options{StuckBad: NotAllHalted, SymmetryReduce: tc.sym})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete || res.StatesExplored != tc.states || res.Stats.Transitions != tc.transitions ||
				res.Stats.SelfLoops != tc.selfLoops {
				t.Errorf("complete=%v states=%d transitions=%d self-loops=%d; want a closed space of %d/%d/%d",
					res.Complete, res.StatesExplored, res.Stats.Transitions, res.Stats.SelfLoops,
					tc.states, tc.transitions, tc.selfLoops)
			}
			want := &Violation{Reason: "stuck: processors can never all halt", Schedule: []int{0, 0, 0, 0, 0, 1, 2, 2, 2}}
			if !reflect.DeepEqual(res.Violation, want) {
				t.Errorf("violation = %+v, want %+v", res.Violation, want)
			}
		})
	}
}

// TestMaxStatesAboveNodeIDs: node ids are uint32, so a MaxStates past
// 2³²−1 is ErrMaxStates before the factory is called, and 2³²−1 itself
// is accepted.
func TestMaxStatesAboveNodeIDs(t *testing.T) {
	called := false
	_, err := Check(func() (*machine.Machine, error) {
		called = true
		return nil, errors.New("not reached")
	}, Options{MaxStates: 1 << 32})
	if !errors.Is(err, ErrMaxStates) || called {
		t.Fatalf("err = %v, factory called = %v; want ErrMaxStates before any exploring", err, called)
	}
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, naiveClaim), Options{MaxStates: math.MaxUint32})
	if err != nil || !res.Complete {
		t.Fatalf("MaxStates 2³²−1: err = %v, result = %+v; want a closed space", err, res)
	}
}

// TestChunkedArray: elements keep their values across the first chunk's
// doublings and later chunk boundaries, and memBytes charges the first
// chunk's capacity plus every later chunk whole.
func TestChunkedArray(t *testing.T) {
	var a chunked[uint32]
	n := 2*chunkLen + 5
	for i := range n {
		if i == 1 && a.memBytes() != 4*firstChunkLen {
			t.Fatalf("one element charges %d bytes, want a %d-element first chunk", a.memBytes(), firstChunkLen)
		}
		a.push(uint32(i))
	}
	for i := range n {
		if a.at(i) != uint32(i) {
			t.Fatalf("element %d = %d", i, a.at(i))
		}
	}
	if got, want := a.memBytes(), int64(4*3*chunkLen); got != want {
		t.Errorf("memBytes = %d over %d elements, want three whole chunks, %d", got, n, want)
	}
}

// TestSelectionPredsAllocationFree: UniquenessPred and StabilityPred read
// Machine.Selected per processor, so a passing state or transition
// allocates nothing, and a violation's message lists the processors as
// SelectedProcs does.
func TestSelectionPredsAllocationFree(t *testing.T) {
	none, err := factoryFor(t, system.Fig1(), system.InstrS, func(b *machine.Builder) {
		selected := b.Sym("selected")
		b.Compute(func(r *machine.Regs) { r.Set(selected, true) })
		b.Halt()
	})()
	if err != nil {
		t.Fatal(err)
	}
	stepped := func(m *machine.Machine, p int) *machine.Machine {
		m = m.Clone()
		if err := m.Step(p); err != nil {
			t.Fatal(err)
		}
		return m
	}
	p, q := stepped(none, 0), stepped(none, 1)
	both := stepped(p, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		if UniquenessPred(p) != "" || StabilityPred(p, both, 1) != "" || StabilityPred(none, q, 1) != "" {
			t.Fatal("a passing pair was flagged")
		}
	}); allocs != 0 {
		t.Errorf("passing predicates allocate %.0f times per run, want 0", allocs)
	}
	for _, c := range []struct{ got, want string }{
		{UniquenessPred(both), "uniqueness violated: processors [0 1] all selected"},
		{StabilityPred(both, none, 0), "stability violated: processor 0 unselected"},
		{StabilityPred(both, p, 1), "stability violated: processor 1 unselected"},
		{StabilityPred(both, q, 1), "stability violated: processor 0 unselected"},
	} {
		if c.got != c.want {
			t.Errorf("message %q, want %q", c.got, c.want)
		}
	}
}

func TestNoDeadlockWhenOrdered(t *testing.T) {
	// Same two processors, but both lock v0 before v1 (a resource
	// hierarchy): no deadlock is reachable and the space closes.
	s := crossedLocks()
	s.Nbr = [][]int{{0, 1}, {0, 1}} // both: a->v0, b->v1
	b := machine.NewBuilder()
	ga := b.Sym("ga")
	b.Label("la")
	b.Lock("a", "ga")
	b.JumpIf(func(r *machine.Regs) bool { return r.Get(ga) != true }, "la")
	b.Lock("b", "gb")
	b.Unlock("b")
	b.Unlock("a")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Check(func() (*machine.Machine, error) {
		return machine.New(s, system.InstrL, prog)
	}, Options{StuckBad: NotAllHalted})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Violation != nil {
		t.Fatalf("ordered locking should be deadlock-free: %+v (schedule %v)",
			res2.Violation.Reason, res2.Violation.Schedule)
	}
	if !res2.Complete {
		t.Error("state space should close")
	}
}

// TestBudgetExhaustion: under symmetry reduction too, a spent state
// budget returns the partial Result with exactly MaxStates states.
func TestBudgetExhaustion(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, func(b *machine.Builder) {
		n := b.Sym("n")
		b.Compute(func(r *machine.Regs) { r.Set(n, 0) })
		b.Label("loop")
		b.Compute(func(r *machine.Regs) { r.Set(n, r.Int(n)+1) })
		b.Jump("loop")
	}), Options{MaxStates: 100, SymmetryReduce: true})
	if err != nil || res.StatesExplored != 100 || res.Complete || res.Exhausted != "states" {
		t.Errorf("result %+v, err %v; want 100 states, the states budget spent and no error", res, err)
	}
}

func TestInitialStateViolationCaught(t *testing.T) {
	// Predicate that fires immediately.
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, func(b *machine.Builder) {
		b.Halt()
	}), Options{
		StatePreds: []StatePredicate{func(m *machine.Machine) string { return "always bad" }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || len(res.Violation.Schedule) != 0 {
		t.Fatalf("initial-state violation should have empty schedule, got %+v", res.Violation)
	}
}

func TestNoneSelectedAndAllHalted(t *testing.T) {
	m, err := factoryFor(t, system.Fig1(), system.InstrS, func(b *machine.Builder) { b.Halt() })()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := NoneSelectedAndAllHalted(m); got == "" {
		t.Error("all-halted-unselected should be flagged")
	}
}

// TestStepErrorReturnsNilResult: a machine step's error ends the check
// with a nil Result, not with the states pushed before it. Each
// processor's second step writes the unset local y.
func TestStepErrorReturnsNilResult(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, func(b *machine.Builder) {
		b.Compute(func(r *machine.Regs) {})
		b.Write("n", "y")
		b.Halt()
	}), Options{})
	if !errors.Is(err, machine.ErrMissingLocal) || res != nil {
		t.Fatalf("result %+v, err %v; want a nil Result and ErrMissingLocal", res, err)
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	_, err := Check(func() (*machine.Machine, error) {
		return nil, errors.New("boom")
	}, Options{})
	if err == nil {
		t.Error("factory error should propagate")
	}
}

// NoneSelectedAndAllHalted flags states where every processor halted
// without anyone selected — a selection algorithm that gave up.
func NoneSelectedAndAllHalted(m *machine.Machine) string {
	if m.AllHalted() && len(m.SelectedProcs()) == 0 {
		return "all processors halted with no selection"
	}
	return ""
}
