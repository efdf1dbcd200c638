package simsym_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"simsym"
	"simsym/internal/adversary"
	"simsym/internal/dining"
	"simsym/internal/mc"
)

func TestOkamotoSamplesFacade(t *testing.T) {
	if got := simsym.OkamotoSamples(0.01, 0.05); got != 18445 {
		t.Errorf("OkamotoSamples(0.01, 0.05) = %d, want 18445", got)
	}
}

func TestCheckStatisticalDiningSafeWithoutFaults(t *testing.T) {
	// Without fault injection the lock discipline makes exclusion
	// breaches impossible: every sampled run is clean and the interval
	// around zero is the whole claim.
	sys, err := simsym.DiningFlipped(6)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simsym.DiningProgram("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simsym.CheckStatisticalDining(sys, prog,
		simsym.WithConfidence(0.1, 0.05), simsym.WithDepth(200), simsym.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe || !rep.Complete || rep.Violations != 0 {
		t.Fatalf("faultless dining should sample clean: %+v", rep)
	}
	if rep.Samples != rep.Target || rep.Samples != simsym.OkamotoSamples(0.1, 0.05) {
		t.Errorf("samples = %d, want the Okamoto target %d", rep.Samples, rep.Target)
	}
	if rep.Estimate != 0 || rep.HalfWidth > 0.1 {
		t.Errorf("estimate %v ± %v, want 0 with half-width <= 0.1", rep.Estimate, rep.HalfWidth)
	}
}

func TestCheckStatisticalDiningLockDropViolationReplays(t *testing.T) {
	// Lock drops are how exclusion actually breaks: a dropped fork can
	// be re-grabbed while its holder still eats. The reported trace
	// (schedule + fault log) must replay to the same violation through
	// the adversary harness.
	sys, err := simsym.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simsym.DiningProgram("left", "right", 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simsym.CheckStatisticalDining(sys, prog,
		simsym.WithConfidence(0.1, 0.05), simsym.WithDepth(600),
		simsym.WithFaults("lockdrop"), simsym.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe || rep.Violations == 0 {
		t.Fatalf("lock-drop runs should breach exclusion sometimes: %+v", rep)
	}
	if !strings.Contains(rep.Violation, "eating together") {
		t.Fatalf("violation = %q, want an exclusion message", rep.Violation)
	}
	if len(rep.Schedule) == 0 {
		t.Fatal("counterexample schedule missing")
	}
	if len(rep.Faults) == 0 {
		t.Fatal("a lock-drop violation needs at least one fault in its log")
	}

	excl, err := dining.LocalExclusionPred(sys, prog)
	if err != nil {
		t.Fatal(err)
	}
	h := &adversary.Harness{
		Sys:       sys,
		Instr:     simsym.InstrL,
		Prog:      prog,
		Sched:     adversary.FromSlice(rep.Schedule),
		Faults:    adversary.NewReplayer(rep.Faults),
		MaxSlots:  len(rep.Schedule),
		ProcPreds: []mc.ProcPredicate{excl},
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("replayed trace did not reproduce the violation")
	}
	if res.Violation.Reason != rep.Violation {
		t.Errorf("replayed violation %q, want %q", res.Violation.Reason, rep.Violation)
	}
}

// TestCheckStatisticalDeterminismMatrix pins the PR's headline guarantee:
// the same seed produces a byte-identical report at every worker count
// (per-sample seed streams plus index-order merging), including when
// violations occur and the index-least one must win.
func TestCheckStatisticalDeterminismMatrix(t *testing.T) {
	sys, err := simsym.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simsym.DiningProgram("left", "right", 3)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*simsym.StatReport
	for _, workers := range []int{1, 4} {
		rep, err := simsym.CheckStatisticalDining(sys, prog,
			simsym.WithConfidence(0.1, 0.05), simsym.WithDepth(400),
			simsym.WithFaults("lockdrop"), simsym.WithSeed(42),
			simsym.WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reports = append(reports, rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Errorf("worker counts disagree:\n  w=1: %+v\n  w=4: %+v", reports[0], reports[1])
	}
}

func TestCheckStatisticalSelection(t *testing.T) {
	sys := simsym.Fig1()
	prog, _, err := simsym.BuildSelectOpts(sys, simsym.InstrL, simsym.SchedFair)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simsym.CheckStatistical(sys, simsym.InstrL, prog,
		simsym.WithConfidence(0.1, 0.05), simsym.WithDepth(300),
		simsym.WithScheduleKind("shuffled"), simsym.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe || !rep.Complete {
		t.Fatalf("Algorithm 4 on Fig1 should sample clean: %+v", rep)
	}
	if rep.Stats.Steps == 0 || rep.Stats.Slots == 0 {
		t.Error("sampled runs should have stepped")
	}
}

func TestCheckStatisticalSampleCapIsPartial(t *testing.T) {
	sys, err := simsym.DiningFlipped(6)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simsym.DiningProgram("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simsym.CheckStatisticalDining(sys, prog,
		simsym.WithConfidence(0.1, 0.05), simsym.WithDepth(100),
		simsym.WithSamples(25), simsym.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete || rep.Exhausted != "samples" {
		t.Fatalf("capped run should be partial: %+v", rep)
	}
	if rep.Samples != 25 {
		t.Errorf("samples = %d, want the cap 25", rep.Samples)
	}
	if rep.HalfWidth <= 0.1 {
		t.Errorf("half-width %v should exceed the requested epsilon", rep.HalfWidth)
	}
}

func TestCheckStatisticalBadArgs(t *testing.T) {
	sys, err := simsym.Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simsym.DiningProgram("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []simsym.Option
	}{
		{"bad schedule kind", []simsym.Option{simsym.WithScheduleKind("adversarial")}},
		{"epsilon out of range", []simsym.Option{simsym.WithConfidence(1.5, 0.05)}},
		{"negative depth", []simsym.Option{simsym.WithDepth(-1)}},
		{"negative samples", []simsym.Option{simsym.WithSamples(-1)}},
		{"unknown fault class", []simsym.Option{simsym.WithFaults("gamma-rays")}},
	}
	for _, c := range cases {
		if _, err := simsym.CheckStatisticalDining(sys, prog, c.opts...); !errors.Is(err, simsym.ErrBadArgs) {
			t.Errorf("%s: err = %v, want ErrBadArgs", c.name, err)
		}
	}
	if _, err := simsym.CheckStatistical(nil, simsym.InstrL, prog); !errors.Is(err, simsym.ErrBadArgs) {
		t.Errorf("nil system: err = %v, want ErrBadArgs", err)
	}
	if _, err := simsym.CheckStatisticalDining(sys, nil); !errors.Is(err, simsym.ErrBadArgs) {
		t.Errorf("nil program: err = %v, want ErrBadArgs", err)
	}
}
