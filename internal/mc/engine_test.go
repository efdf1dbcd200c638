package mc

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"simsym/internal/autgrp"
	"simsym/internal/machine"
	"simsym/internal/system"
)

// spinForever is an unbounded-state program: a strictly growing counter.
func spinForever(b *machine.Builder) {
	n := b.Sym("n")
	b.Compute(func(r *machine.Regs) { r.Set(n, 0) })
	b.Label("loop")
	b.Compute(func(r *machine.Regs) { r.Set(n, r.Int(n)+1) })
	b.Jump("loop")
}

// TestBudgetExploresExactlyMaxStates pins the off-by-one fix: the old
// checker pushed first and tested after, exploring MaxStates+1 states.
// A spent budget is not an error: it returns the partial Result. The
// budget is checked only before a push, so a budget equal to the size of
// a finite space still closes it, and one state less does not.
func TestBudgetExploresExactlyMaxStates(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, spinForever), Options{MaxStates: 100})
	if err != nil {
		t.Fatalf("a spent budget returned the error %v", err)
	}
	if res.StatesExplored != 100 {
		t.Errorf("StatesExplored = %d, want exactly 100", res.StatesExplored)
	}
	if res.Complete {
		t.Error("budget-exhausted result must not be Complete")
	}
	if res.Exhausted != "states" {
		t.Errorf("Exhausted = %q, want \"states\"", res.Exhausted)
	}

	factory := factoryFor(t, system.Fig1(), system.InstrL, lockClaim)
	full, err := Check(factory, Options{})
	if err != nil || !full.Complete {
		t.Fatalf("lockClaim should close: %+v, %v", full, err)
	}
	for _, budget := range []int{full.StatesExplored, full.StatesExplored - 1} {
		res, err := Check(factory, Options{MaxStates: budget})
		if err != nil {
			t.Fatal(err)
		}
		closes := budget == full.StatesExplored
		if res.StatesExplored != budget || res.Complete != closes || (res.Exhausted == "") != closes {
			t.Errorf("budget %d of a %d-state space: %d states, complete=%v, exhausted=%q", budget, full.StatesExplored, res.StatesExplored, res.Complete, res.Exhausted)
		}
	}
}

// TestPartialBudgetReturnsGracefulResult: a partial result carries no
// stuck verdict. Every spinForever state is flagged, but the stuck search
// runs only on a closed space: a budget leaves the frontier unexpanded.
func TestPartialBudgetReturnsGracefulResult(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, spinForever), Options{
		MaxStates: 50,
		StuckBad:  NotAllHalted,
	})
	if err != nil {
		t.Fatalf("a spent budget returned the error %v", err)
	}
	if res.StatesExplored != 50 || res.Complete || res.Exhausted != "states" || res.Violation != nil {
		t.Errorf("partial result = %+v", res)
	}
}

func TestTimeBudgetDegrades(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, spinForever), Options{
		MaxDuration: 1, // one nanosecond: exhausted at the first poll
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != "time" || res.Complete {
		t.Errorf("result = %+v, want time exhaustion", res)
	}
}

func TestMemoryBudgetDegrades(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, spinForever), Options{
		MaxMemBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != "memory" || res.Complete {
		t.Errorf("result = %+v, want memory exhaustion", res)
	}
	if res.Stats.PeakMemBytes <= 0 {
		t.Error("memory estimate should be populated")
	}
}

// TestTransPredsSeeSelfLoops pins the self-loop ordering fix: stepping a
// halted processor is a stutter step; transition predicates must observe
// it even though it is excluded from the successor graph.
func TestTransPredsSeeSelfLoops(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, func(b *machine.Builder) {
		b.Halt()
	}), Options{
		TransPreds: []TransitionPredicate{func(before, after *machine.Machine, proc int) string {
			if before.Fingerprint() == after.Fingerprint() {
				return "stutter step observed"
			}
			return ""
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || !strings.Contains(res.Violation.Reason, "stutter") {
		t.Fatalf("transition predicates must see stutter steps, got %+v", res.Violation)
	}
}

// TestTransPredCountsEveryScheduledStep: with a non-violating counting
// predicate, every (state, processor) pair of the closed space is
// examined exactly once — stutters included.
func TestTransPredCountsEveryScheduledStep(t *testing.T) {
	calls := 0
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, func(b *machine.Builder) {
		b.Halt()
	}), Options{
		TransPreds: []TransitionPredicate{func(before, after *machine.Machine, proc int) string {
			calls++
			return ""
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("space should close")
	}
	nProcs := 2
	if want := res.StatesExplored * nProcs; calls != want {
		t.Errorf("predicate calls = %d, want states*procs = %d", calls, want)
	}
	if res.Stats.SelfLoops == 0 {
		t.Error("halt-program space must contain stutter steps")
	}
	if int(res.Stats.Transitions+res.Stats.SelfLoops) != calls {
		t.Errorf("Transitions(%d)+SelfLoops(%d) should equal scheduled steps (%d)",
			res.Stats.Transitions, res.Stats.SelfLoops, calls)
	}
}

func TestStatsPopulated(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrL, lockClaim), Options{
		StatePreds: []StatePredicate{UniquenessPred},
	})
	if err != nil || !res.Complete {
		t.Fatalf("result %+v, err %v; want a closed space", res, err)
	}
	st := res.Stats
	if st.StatesExplored != res.StatesExplored {
		t.Errorf("stats/result state counts differ: %d vs %d", st.StatesExplored, res.StatesExplored)
	}
	if st.Depth == 0 || st.PeakFrontier == 0 || st.Transitions == 0 {
		t.Errorf("stats should be populated: %+v", st)
	}
	if st.GroupOrder != 1 {
		t.Errorf("GroupOrder = %d without symmetry reduction, want 1", st.GroupOrder)
	}
	if st.Elapsed <= 0 {
		t.Error("Elapsed should be positive")
	}
}

// TestMemoCountsFig1 pins the step memo's counters on lockClaim over
// Fig1, counted by hand. A processor's frame is at the lock (A), past it
// having won or lost (B1, B0), past the claim (C1, C0) or halted there
// (D1, D0). Only the lock reads the variable, from A with n unlocked or
// locked, and each processor both wins and loses: per processor, two
// keys at A and six keyless ones, B1 through D0. So 16 distinct steps,
// each a miss once; every other step is a hit.
func TestMemoCountsFig1(t *testing.T) {
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrL, lockClaim), Options{})
	if err != nil || !res.Complete {
		t.Fatalf("result %+v, err %v; want a closed space", res, err)
	}
	st := res.Stats
	if st.MemoEntries != 16 || st.MemoMisses != 16 {
		t.Errorf("memo entries %d, misses %d; want 16 and 16", st.MemoEntries, st.MemoMisses)
	}
	if steps := st.Transitions + st.SelfLoops; steps <= st.MemoMisses {
		t.Errorf("%d steps, %d misses: the memo answered none", steps, st.MemoMisses)
	}
}

// TestProgressCallback: snapshots arrive every 16,384 states and once at
// the end, the last one mirrors the Result, and every snapshot is
// internally consistent — counters monotone, and Transitions never
// behind StatesExplored-1 (every non-root state is found by a counted
// transition) — both on a closing space of 30,420 states and on a run
// stopped by its state budget at 40,000.
func TestProgressCallback(t *testing.T) {
	for _, tc := range []struct {
		name      string
		factory   func() (*machine.Machine, error)
		opts      Options
		states    int
		exhausted string
	}{
		{"closing", factoryFor(t, system.Fig2(), system.InstrQ, countPosts),
			Options{StuckBad: NotAllHalted}, 30_420, ""},
		{"budget", factoryFor(t, system.Fig1(), system.InstrS, spinForever),
			Options{MaxStates: 40_000}, 40_000, "states"},
	} {
		var snaps []Stats
		o := tc.opts
		o.Progress = func(s Stats) { snaps = append(snaps, s) }
		res, err := Check(tc.factory, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.StatesExplored != tc.states || res.Exhausted != tc.exhausted || res.Complete != (tc.exhausted == "") {
			t.Fatalf("%s: %d states, complete=%v, exhausted=%q; want %d, %v, %q", tc.name,
				res.StatesExplored, res.Complete, res.Exhausted, tc.states, tc.exhausted == "", tc.exhausted)
		}
		if want := tc.states/progressEvery + 1; len(snaps) != want {
			t.Fatalf("%s: %d progress snapshots, want %d", tc.name, len(snaps), want)
		}
		last := snaps[len(snaps)-1]
		if last.StatesExplored != res.StatesExplored {
			t.Errorf("%s: final snapshot states = %d, want %d", tc.name, last.StatesExplored, res.StatesExplored)
		}
		for i, s := range snaps {
			if s.Transitions < int64(s.StatesExplored)-1 {
				t.Errorf("%s: snapshot %d: %d transitions < %d states - 1", tc.name, i, s.Transitions, s.StatesExplored)
			}
			if i > 0 && (s.StatesExplored < snaps[i-1].StatesExplored || s.Transitions < snaps[i-1].Transitions) {
				t.Errorf("%s: snapshot %d regressed: %+v after %+v", tc.name, i, s, snaps[i-1])
			}
		}
	}
}

// flippedFourTable is the Figure 5 table of four philosophers, forks
// alternating, with a program that spins for its left fork, then its
// right, puts both down and halts: a closed space of 5,689 states.
func flippedFourTable(tb testing.TB) (*system.System, *machine.Program) {
	tb.Helper()
	s, err := system.DiningFlipped(4)
	if err != nil {
		tb.Fatal(err)
	}
	bl := machine.NewBuilder()
	g1, g2 := bl.Sym("_g1"), bl.Sym("_g2")
	bl.Label("grab1")
	bl.Lock("left", "_g1")
	bl.JumpIf(func(r *machine.Regs) bool { return r.Get(g1) != true }, "grab1")
	bl.Label("grab2")
	bl.Lock("right", "_g2")
	bl.JumpIf(func(r *machine.Regs) bool { return r.Get(g2) != true }, "grab2")
	bl.Unlock("right")
	bl.Unlock("left")
	bl.Halt()
	prog, err := bl.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return s, prog
}

// checkModes runs the same check in both engine modes, without and with
// symmetry reduction, and returns the results keyed by mode name.
func checkModes(t *testing.T, factory func() (*machine.Machine, error), opts Options) map[string]*Result {
	t.Helper()
	out := make(map[string]*Result)
	for _, mode := range []struct {
		name string
		sym  bool
	}{
		{"seq", false},
		{"sym", true},
	} {
		o := opts
		o.SymmetryReduce = mode.sym
		res, err := Check(factory, o)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		out[mode.name] = res
	}
	return out
}

// assertIdentical enforces that two runs agree label for label: verdict,
// witness schedule, state counts, and every exploration counter.
func assertIdentical(t *testing.T, a, b *Result, what string) {
	t.Helper()
	if (a.Violation == nil) != (b.Violation == nil) {
		t.Fatalf("%s: verdicts differ: %+v vs %+v", what, a.Violation, b.Violation)
	}
	if a.Violation != nil {
		if a.Violation.Reason != b.Violation.Reason {
			t.Errorf("%s: reasons differ: %q vs %q", what, a.Violation.Reason, b.Violation.Reason)
		}
		if len(a.Violation.Schedule) != len(b.Violation.Schedule) {
			t.Fatalf("%s: schedules differ: %v vs %v", what, a.Violation.Schedule, b.Violation.Schedule)
		}
		for i := range a.Violation.Schedule {
			if a.Violation.Schedule[i] != b.Violation.Schedule[i] {
				t.Fatalf("%s: schedules differ: %v vs %v", what, a.Violation.Schedule, b.Violation.Schedule)
			}
		}
	}
	if a.StatesExplored != b.StatesExplored || a.Complete != b.Complete {
		t.Errorf("%s: exploration differs: %d/%v vs %d/%v", what,
			a.StatesExplored, a.Complete, b.StatesExplored, b.Complete)
	}
	if a.Stats.Transitions != b.Stats.Transitions ||
		a.Stats.DedupHits != b.Stats.DedupHits ||
		a.Stats.SelfLoops != b.Stats.SelfLoops ||
		a.Stats.Depth != b.Stats.Depth ||
		a.Stats.PeakFrontier != b.Stats.PeakFrontier {
		t.Errorf("%s: stats differ:\n%+v\n%+v", what, a.Stats, b.Stats)
	}
}

// TestSymmetryVerdictEquivalence: on every topology, symmetry reduction
// must keep the verdict while never exploring more states; violation
// witnesses must replay to genuinely violating states.
func TestSymmetryVerdictEquivalence(t *testing.T) {
	modes := checkModes(t, factoryFor(t, system.Fig1(), system.InstrS, naiveClaim),
		Options{StatePreds: []StatePredicate{UniquenessPred}})
	full, sym := modes["seq"], modes["sym"]
	if (full.Violation == nil) != (sym.Violation == nil) {
		t.Fatalf("verdicts differ: %+v vs %+v", full.Violation, sym.Violation)
	}
	if sym.StatesExplored > full.StatesExplored {
		t.Errorf("symmetry reduction explored more states: %d > %d", sym.StatesExplored, full.StatesExplored)
	}
	if sym.Stats.GroupOrder < 2 {
		t.Errorf("Fig1 has a swap automorphism; GroupOrder = %d", sym.Stats.GroupOrder)
	}
	// Replay the symmetry-reduced witness: it must double-select.
	m, err := factoryFor(t, system.Fig1(), system.InstrS, naiveClaim)()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sym.Violation.Schedule {
		if err := m.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	if sel := m.SelectedProcs(); len(sel) < 2 {
		t.Errorf("replayed symmetry-reduced witness selects %v, want 2", sel)
	}

	// Safe topology: closure verdict must match too.
	safe := checkModes(t, factoryFor(t, system.Fig1(), system.InstrL, lockClaim),
		Options{StatePreds: []StatePredicate{UniquenessPred}, TransPreds: []TransitionPredicate{StabilityPred}})
	if safe["sym"].Violation != nil || !safe["sym"].Complete {
		t.Errorf("symmetry-reduced lock check should close safely: %+v", safe["sym"])
	}
	if safe["sym"].StatesExplored >= safe["seq"].StatesExplored {
		t.Errorf("Fig1's swap symmetry should shrink the lock space: %d vs %d",
			safe["sym"].StatesExplored, safe["seq"].StatesExplored)
	}

	// Deadlock topology: the crossed-locks system has a proc swap that
	// also swaps the two variables; the stuck verdict must survive.
	stuck := checkModes(t, factoryFor(t, crossedLocks(), system.InstrL, spinLockBoth),
		Options{StuckBad: NotAllHalted})
	if (stuck["seq"].Violation == nil) != (stuck["sym"].Violation == nil) {
		t.Fatalf("deadlock verdicts differ: %+v vs %+v", stuck["seq"].Violation, stuck["sym"].Violation)
	}
	if stuck["sym"].Violation == nil || !strings.Contains(stuck["sym"].Violation.Reason, "stuck") {
		t.Errorf("symmetry-reduced check should still find the deadlock: %+v", stuck["sym"].Violation)
	}
}

// TestBudgetMidLevelDeterministic: when MaxStates lands in the middle of
// a BFS level the run stops at exactly the budget with the same partial
// result, run after run. spinForever's frontier widens level over level,
// so a budget of 97 (prime, far from any level boundary) is guaranteed to
// land mid-level.
func TestBudgetMidLevelDeterministic(t *testing.T) {
	factory := factoryFor(t, system.Fig1(), system.InstrS, spinForever)
	var first *Result
	for run := 0; run < 3; run++ {
		res, err := Check(factory, Options{MaxStates: 97})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.StatesExplored != 97 || res.Complete || res.Exhausted != "states" {
			t.Fatalf("run %d: want exactly 97 states, budget-exhausted: %+v", run, res)
		}
		if first == nil {
			first = res
			continue
		}
		assertIdentical(t, first, res, fmt.Sprintf("run %d", run))
	}
}

// TestStorageStatsExact: the storage telemetry is exact. StoredKeyBytes is w·W bytes per stored vector plus
// the component table's distinct windows, where w = 1 because both
// systems have fewer than 256 distinct windows, and LogicalKeyBytes is the
// stored states' full key lengths — both recomputed here from an
// independent breadth-first walk of the reachable states. A complete
// symmetry-reduced run interns the same windows as the plain one (a
// state's window set is invariant under automorphisms, and every orbit
// is expanded), while its logical bytes sum one key per orbit.
func TestStorageStatsExact(t *testing.T) {
	s4, prog4 := flippedFourTable(t)
	cases := []struct {
		name    string
		sys     *system.System
		factory func() (*machine.Machine, error)
	}{
		{"fig1-lock", system.Fig1(), factoryFor(t, system.Fig1(), system.InstrL, lockClaim)},
		{"flipped-4-table", s4, func() (*machine.Machine, error) { return machine.New(s4, system.InstrL, prog4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			modes := checkModes(t, tc.factory, Options{StuckBad: NotAllHalted})
			ref := reachableStorage(t, tc.sys, tc.factory)
			if ref.windows >= 256 {
				t.Fatalf("%d distinct windows; 1-byte ids need fewer than 256", ref.windows)
			}
			width := int64(tc.sys.NumProcs() + tc.sys.NumVars())
			for name, want := range map[string]struct{ states, logical int64 }{
				"seq": {ref.states, ref.logical},
				"sym": {ref.orbits, ref.orbitLogical},
			} {
				st := modes[name].Stats
				if !modes[name].Complete || int64(modes[name].StatesExplored) != want.states {
					t.Fatalf("%s: %d states (complete=%v), reference %d", name, modes[name].StatesExplored, modes[name].Complete, want.states)
				}
				if wantStored := width*want.states + ref.windowBytes; st.StoredKeyBytes != wantStored {
					t.Errorf("%s: StoredKeyBytes = %d, want 1·%d·%d + %d = %d", name, st.StoredKeyBytes, width, want.states, ref.windowBytes, wantStored)
				}
				if st.LogicalKeyBytes != want.logical {
					t.Errorf("%s: LogicalKeyBytes = %d, want %d", name, st.LogicalKeyBytes, want.logical)
				}
			}
		})
	}
}

// storageRef is the storage telemetry of a closed state space, computed
// without the checker.
type storageRef struct {
	states, orbits        int64
	windows, windowBytes  int64 // distinct component windows: their count and bytes
	logical, orbitLogical int64 // full key bytes: every state, one per orbit
}

// reachableStorage walks every reachable state breadth-first, keyed by
// its full state key, and canonicalizes each into its orbit as the least
// permuted key over the automorphism group.
func reachableStorage(t *testing.T, sys *system.System, factory func() (*machine.Machine, error)) storageRef {
	t.Helper()
	auts, err := autgrp.Automorphisms(sys)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	var ref storageRef
	seen := map[string]bool{}
	windows := map[string]bool{}
	orbits := map[string]bool{}
	visit := func(m *machine.Machine) bool {
		key := string(m.AppendStateKey(nil, nil, nil))
		if seen[key] {
			return false
		}
		seen[key] = true
		ref.states++
		ref.logical += int64(len(key))
		for p := 0; p < m.NumProcs(); p++ {
			windows[string(m.AppendProcFingerprint(nil, p))] = true
		}
		for v := 0; v < m.NumVars(); v++ {
			windows[string(m.AppendVarFingerprint(nil, v))] = true
		}
		least := key
		for _, a := range auts {
			if k := string(m.AppendStateKey(nil, a.ProcPerm, a.VarPerm)); k < least {
				least = k
			}
		}
		if !orbits[least] {
			orbits[least] = true
			ref.orbits++
			ref.orbitLogical += int64(len(least))
		}
		return true
	}
	visit(m0)
	for level := []*machine.Machine{m0}; len(level) > 0; {
		var next []*machine.Machine
		for _, m := range level {
			for p := 0; p < m.NumProcs(); p++ {
				child := m.Clone()
				if err := child.Step(p); err != nil {
					t.Fatal(err)
				}
				if visit(child) {
					next = append(next, child)
				}
			}
		}
		level = next
	}
	for w := range windows {
		ref.windowBytes += int64(len(w))
	}
	ref.windows = int64(len(windows))
	return ref
}

// TestMemoryBudgetFiresPromptly pins the capacity-accounting fix at the
// engine level: with an honest estimate the memory budget must trip
// before the footprint meaningfully overshoots the cap (the old
// length-based estimate lagged allocations by whole growth steps), and
// must still return a graceful partial result with work done.
func TestMemoryBudgetFiresPromptly(t *testing.T) {
	const budget = 512 << 10
	res, err := Check(factoryFor(t, system.Fig1(), system.InstrS, spinForever), Options{
		MaxMemBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != "memory" || res.Complete {
		t.Fatalf("result = %+v, want graceful memory exhaustion", res)
	}
	if res.StatesExplored == 0 {
		t.Error("partial result should carry explored states")
	}
	// The estimate is checked after every push, so the recorded peak can
	// exceed the budget by at most one allocation growth step — doubling
	// in the worst case — never by an unaccounted multiple.
	if res.Stats.PeakMemBytes > 3*budget {
		t.Errorf("peak estimate %d overshot the %d budget by more than one growth step", res.Stats.PeakMemBytes, budget)
	}
}

// TestMemEstimateTracksLiveHeap pins memEstimate to what the check holds
// live, so MaxMemBytes bounds the real heap rather than a fraction of
// it: at the first Progress callback past 100k states, after a
// collection, the estimate (Stats.PeakMemBytes, which only grows on this
// run) is within 15% of the heap the check added since it began.
func TestMemEstimateTracksLiveHeap(t *testing.T) {
	factory := factoryFor(t, system.Fig1(), system.InstrS, spinForever)
	var before, at runtime.MemStats
	var est int64
	progress := func(s Stats) {
		if est != 0 || s.StatesExplored < 100_000 {
			return
		}
		runtime.GC()
		runtime.ReadMemStats(&at)
		est = s.PeakMemBytes
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Check(factory, Options{MaxStates: 120_000, StuckBad: NotAllHalted, Progress: progress})
	if err != nil {
		t.Fatal(err)
	}
	if est == 0 {
		t.Fatal("no Progress callback past 100k states")
	}
	live := int64(at.HeapAlloc) - int64(before.HeapAlloc)
	if off := math.Abs(float64(est-live)) / float64(live); off > 0.15 {
		t.Errorf("estimate %d bytes against %d live: off by %.1f%%, more than 15%%", est, live, 100*off)
	}
}

// TestProcVarWindowCollision: a frame at pc 59 encodes as the byte 'v',
// not halted, then its locals, which is also how an unlocked S/L
// variable holding the same value encodes. On Ring(2) every processor
// jumps 59 times, writes its init value into its left variable and
// halts, so the two windows coincide from the first state on, and the
// component table must keep a processor's value and a variable's value
// apart under one id: a store that keeps one value per id loads the
// variable's value into a frame here.
func TestProcVarWindowCollision(t *testing.T) {
	ring, err := system.Ring(2)
	if err != nil {
		t.Fatal(err)
	}
	factory := factoryFor(t, ring, system.InstrL, func(b *machine.Builder) {
		for i := 0; i < 59; i++ {
			b.Jump(fmt.Sprint("j", i))
			b.Label(fmt.Sprint("j", i))
		}
		b.Write("left", "init")
		b.Halt()
	})
	m, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 59; i++ {
		if err := m.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(m.AppendProcFingerprint(nil, 0), m.AppendVarFingerprint(nil, 0)) {
		t.Fatal("the frame at pc 59 and the initial variable no longer share a window; the test is vacuous")
	}
	res, err := Check(factory, Options{StuckBad: NotAllHalted})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Violation != nil || res.StatesExplored != 3844 || res.Stats.Transitions != 7564 {
		t.Errorf("complete=%v violation=%v states=%d transitions=%d; want a closed, safe space of 3844 states and 7564 transitions",
			res.Complete, res.Violation, res.StatesExplored, res.Stats.Transitions)
	}
}
