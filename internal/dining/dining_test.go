package dining

import (
	"fmt"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/system"
)

func table(t *testing.T, n int, flipped bool) *system.System {
	t.Helper()
	var s *system.System
	var err error
	if flipped {
		s, err = system.DiningFlipped(n)
	} else {
		s, err = system.Dining(n)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDP5LeftRightDeadlocks(t *testing.T) {
	// Figure 4: the symmetric table. Uniform left-then-right grabbing
	// deadlocks under round-robin — the schedule that keeps the five
	// similar philosophers in lock step makes each hold one fork forever.
	s := table(t, 5, false)
	prog, err := Program("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	round, found, err := FindDeadlockRoundRobin(s, prog, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("five-philosopher uniform program must deadlock under round-robin (DP)")
	}
	if round <= 0 {
		t.Errorf("round = %d", round)
	}
}

func TestDP5RightLeftAlsoDeadlocks(t *testing.T) {
	// Symmetric failure: the mirror-image program deadlocks too. DP is
	// about ALL uniform programs; the two canonical grab orders both
	// fail, as Theorem 11 predicts.
	s := table(t, 5, false)
	prog, err := Program("right", "left", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, found, err := FindDeadlockRoundRobin(s, prog, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("mirror program must deadlock as well")
	}
}

func TestDP5ExhaustiveDeadlock(t *testing.T) {
	// The full claim, exhaustively: the deadlock is reachable (and found
	// as a stuck terminal component) over the complete ~720k-state
	// schedule space. Slow; skipped with -short.
	if testing.Short() {
		t.Skip("exhaustive DP5 exploration is slow")
	}
	s := table(t, 5, false)
	prog, err := Program("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(s, prog, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatal("DP5 state space should close within 1M states")
	}
	if rep.ExclusionViolated != nil {
		t.Fatalf("locking program should never violate exclusion, schedule %v", rep.ExclusionViolated)
	}
	if rep.Deadlocked == nil {
		t.Fatal("five-philosopher uniform program must deadlock (DP)")
	}
}

func TestDP6FlippedLeftRightIsCorrect(t *testing.T) {
	// Figure 5 / DP': on the flipped table the left forks form level one
	// of a resource hierarchy and the right forks level two, so the SAME
	// uniform program that deadlocks on Figure 4 is deadlock-free here.
	// Exhaustively model-checked for 1 meal.
	// The 6-table's interleaving space exceeds an exhaustive budget;
	// this is bounded verification (no violation within the bound). The
	// 4-table below closes completely.
	s := table(t, 6, true)
	prog, err := Program("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(s, prog, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExclusionViolated != nil {
		t.Fatalf("exclusion violated, schedule %v", rep.ExclusionViolated)
	}
	if rep.Deadlocked != nil {
		t.Fatalf("DP' solution deadlocked, schedule %v", rep.Deadlocked)
	}
	t.Logf("DP'(6) verified over %d states (complete=%v)", rep.StatesExplored, rep.Complete)
}

func TestDP4FlippedIsCorrect(t *testing.T) {
	// The smaller flipped table closes fast and is checked with more
	// meals.
	s := table(t, 4, true)
	prog, err := Program("left", "right", 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(s, prog, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExclusionViolated != nil || rep.Deadlocked != nil {
		t.Fatalf("flipped table of 4 should be correct: %+v", rep)
	}
}

// TestE5FlippedFourCounts pins E5's two checks of the flipped table of
// four (one meal each, plain and symmetry-reduced) to counts recorded
// before the visited set moved to component-id vectors. Under reduction
// the stored orbit representative is the least id vector, so these
// counts also pin that dedup depends only on orbit identity, never on
// which representative is stored.
func TestE5FlippedFourCounts(t *testing.T) {
	s := table(t, 4, true)
	prog, err := Program("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	type counts struct {
		states                            int
		transitions, dedupHits, selfLoops int64
		depth, peakFrontier               int
	}
	plain := counts{41737, 152628, 110892, 14320, 53, 1936}
	reduced := counts{10524, 38481, 27958, 3615, 53, 489}
	for _, mode := range []struct {
		name string
		opts mc.Options
		want counts
	}{
		{"seq", mc.Options{}, plain},
		{"sym", mc.Options{SymmetryReduce: true}, reduced},
	} {
		t.Run(mode.name, func(t *testing.T) {
			o := mode.opts
			o.MaxStates = 10_000_000
			rep, err := CheckWith(s, prog, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Complete || rep.ExclusionViolated != nil || rep.Deadlocked != nil {
				t.Fatalf("flipped table of 4 must close safe: %+v", rep)
			}
			st := rep.Stats
			got := counts{rep.StatesExplored, st.Transitions, st.DedupHits, st.SelfLoops, st.Depth, st.PeakFrontier}
			if got != mode.want {
				t.Errorf("counts = %+v, want %+v", got, mode.want)
			}
		})
	}
}

func TestDP6Progress(t *testing.T) {
	// Under round-robin every philosopher finishes its meals.
	s := table(t, 6, true)
	const meals = 3
	prog, err := Program("left", "right", meals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFair(s, prog, 500)
	if err != nil {
		t.Fatal(err)
	}
	for p, m := range got {
		if m != meals {
			t.Errorf("philosopher %d ate %d meals, want %d", p, m, meals)
		}
	}
}

func TestDP5RoundRobinStarves(t *testing.T) {
	// The round-robin run on Figure 4 makes nobody eat: all philosophers
	// grab their first fork in lockstep and spin forever — the operational
	// face of "all five are similar".
	s := table(t, 5, false)
	prog, err := Program("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFair(s, prog, 300)
	if err != nil {
		t.Fatal(err)
	}
	for p, m := range got {
		if m != 0 {
			t.Errorf("philosopher %d ate %d meals; round-robin should deadlock everyone", p, m)
		}
	}
}

func TestGreedyViolatesExclusion(t *testing.T) {
	// Without locks (plain S), the greedy program lets adjacent
	// philosophers eat together — the model checker produces the
	// interleaving.
	s := table(t, 5, false)
	rep, err := CheckGreedy(s, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExclusionViolated == nil {
		t.Fatal("greedy program should violate exclusion")
	}
}

func TestAdjacency(t *testing.T) {
	s := table(t, 5, false)
	pairs, err := Adjacency(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("pairs = %v, want 5", pairs)
	}
	// Each philosopher appears in exactly two pairs.
	count := make(map[int]int)
	for _, pr := range pairs {
		count[pr[0]]++
		count[pr[1]]++
	}
	for p := 0; p < 5; p++ {
		if count[p] != 2 {
			t.Errorf("philosopher %d in %d pairs, want 2", p, count[p])
		}
	}
	// A non-dining system is rejected.
	if _, err := Adjacency(system.Fig2()); err == nil {
		t.Error("Fig2 should not be accepted as a dining table")
	}
}

// GreedyProgram is the strawman that ignores locking: read both forks,
// and if both look free, mark them taken and eat. Exclusion fails under
// schedules that interleave the reads — the Figure 4 "all philosophers
// eat together" scenario in miniature (runs in S).
func GreedyProgram() (*machine.Program, error) {
	b := machine.NewBuilder()
	l, r0 := b.Sym("_l"), b.Sym("_r")
	eatingS, markS := b.Sym("eating"), b.Sym("_mark")
	b.Read("left", "_l")
	b.Read("right", "_r")
	b.JumpIf(func(r *machine.Regs) bool {
		return r.Get(l) != "0" || r.Get(r0) != "0"
	}, "skip")
	b.Compute(func(r *machine.Regs) {
		r.Set(eatingS, true)
		r.Set(markS, "taken")
	})
	b.Write("left", "_mark")
	b.Write("right", "_mark")
	b.Label("skip")
	b.Halt()
	return b.Build()
}

// CheckGreedy model-checks the greedy program (instruction set S) for
// exclusion violations.
func CheckGreedy(sys *system.System, maxStates int) (*Report, error) {
	prog, err := GreedyProgram()
	if err != nil {
		return nil, err
	}
	exclusion, err := ExclusionPred(sys, prog)
	if err != nil {
		return nil, err
	}
	res, err := mc.Check(func() (*machine.Machine, error) {
		return machine.New(sys, system.InstrS, prog)
	}, mc.Options{
		MaxStates:  maxStates,
		StatePreds: []mc.StatePredicate{exclusion},
	})
	if err != nil {
		return nil, fmt.Errorf("dining: %w", err)
	}
	rep := &Report{StatesExplored: res.StatesExplored, Complete: res.Complete, Stats: res.Stats}
	if res.Violation != nil {
		rep.ExclusionViolated = res.Violation.Schedule
	}
	return rep, nil
}
