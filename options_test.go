package simsym_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"simsym"
)

// TestFacadeBadArgs: every facade helper rejects malformed arguments
// with an error wrapping ErrBadArgs — one consistent sentinel across the
// whole surface.
func TestFacadeBadArgs(t *testing.T) {
	cases := []struct {
		name string
		call func() error
	}{
		{"Ring(0)", func() error { _, err := simsym.Ring(0); return err }},
		{"Ring(-3)", func() error { _, err := simsym.Ring(-3); return err }},
		{"Dining(1)", func() error { _, err := simsym.Dining(1); return err }},
		{"DiningFlipped(2)", func() error { _, err := simsym.DiningFlipped(2); return err }},
		{"DiningFlipped(5)", func() error { _, err := simsym.DiningFlipped(5); return err }},
		{"Star(0)", func() error { _, err := simsym.Star(0); return err }},
		{"Similarity(nil)", func() error { _, err := simsym.SimilarityOpts(nil, simsym.RuleQ); return err }},
		{"SimilarityOpts(nil)", func() error { _, err := simsym.SimilarityOpts(nil, simsym.RuleQ); return err }},
		{"Decide(nil)", func() error { _, err := simsym.DecideOpts(nil, simsym.InstrQ, simsym.SchedFair); return err }},
		{"BuildSelect(nil)", func() error { _, _, err := simsym.BuildSelectOpts(nil, simsym.InstrQ, simsym.SchedFair); return err }},
		{"NewMachine(nil sys)", func() error { _, err := simsym.NewMachine(nil, simsym.InstrQ, &simsym.Program{}); return err }},
		{"ComputeOrbits(nil)", func() error { _, err := simsym.ComputeOrbits(nil); return err }},
		{"MimicsNobody(nil)", func() error { _, err := simsym.MimicsNobody(nil); return err }},
		{"HomogeneousFamily(empty)", func() error { _, err := simsym.HomogeneousFamily(nil); return err }},
		{"DecideFamily(nil)", func() error { _, err := simsym.DecideFamily(nil); return err }},
		{"RelabelVersions(nil)", func() error { _, err := simsym.RelabelVersions(nil); return err }},
		{"RoundRobin(0, 1)", func() error { _, err := simsym.RoundRobin(0, 1); return err }},
		{"RoundRobin(3, -1)", func() error { _, err := simsym.RoundRobin(3, -1); return err }},
		{"WitnessSimilarity(rounds=0)", func() error {
			sys := simsym.Fig1()
			lab, err := simsym.SimilarityOpts(sys, simsym.RuleQ)
			if err != nil {
				return err
			}
			_, err = simsym.WitnessSimilarity(sys, simsym.InstrQ, &simsym.Program{}, lab, 0)
			return err
		}},
		{"CheckOpts(nil prog)", func() error {
			_, err := simsym.CheckOpts(simsym.Fig1(), simsym.InstrL, nil, simsym.WithMaxStates(100))
			return err
		}},
		{"CheckOpts(negative states)", func() error {
			_, err := simsym.CheckOpts(simsym.Fig1(), simsym.InstrL, &simsym.Program{}, simsym.WithMaxStates(-1))
			return err
		}},
		{"CheckDiningOpts(nil prog)", func() error {
			_, err := simsym.CheckDiningOpts(simsym.Fig1(), nil, simsym.WithMaxStates(100))
			return err
		}},
		{"DiningProgram(meals=0)", func() error { _, err := simsym.DiningProgram("left", "right", 0); return err }},
		{"DiningProgram(empty name)", func() error { _, err := simsym.DiningProgram("", "right", 1); return err }},
		{"OrientedDiningTable(shape)", func() error { _, err := simsym.OrientedDiningTable(3, []bool{true}); return err }},
		{"ChandyMisraProgram(0)", func() error { _, err := simsym.ChandyMisraProgram(0); return err }},
		{"ItaiRodehSweep(runs=0)", func() error { _, err := simsym.ItaiRodehSweep(1, 5, 8, 100, 0); return err }},
		{"CSPRing(0)", func() error { _, err := simsym.CSPRing(0); return err }},
		{"DecideExtendedCSP(nil)", func() error { _, err := simsym.DecideExtendedCSP(nil); return err }},
		{"MsgSimilarity(nil)", func() error { _, err := simsym.MsgSimilarity(nil, true); return err }},
		{"RunFair(rounds=0)", func() error {
			_, _, err := simsym.RunFair(simsym.Fig1(), simsym.InstrL, &simsym.Program{}, 0)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("want an error, got nil")
			}
			if !errors.Is(err, simsym.ErrBadArgs) {
				t.Fatalf("error %v should wrap ErrBadArgs", err)
			}
		})
	}
}

// markedRing returns a ring with one distinguished processor, so the
// similarity refinement actually carves classes (and emits refinement
// events) instead of closing immediately on the symmetric partition.
func markedRing(t *testing.T, n int) *simsym.System {
	t.Helper()
	sys, err := simsym.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	sys.ProcInit[0] = "leader"
	return sys
}

// TestDecideOptsEventKinds is the acceptance criterion for the observer
// plumbing: one DecideOpts run over an in-memory ring captures at least
// five distinct event kinds end to end (phase boundaries, refinement
// rounds, point stats, and the verdict).
func TestDecideOptsEventKinds(t *testing.T) {
	ring := simsym.NewEventRing(0)
	rec := simsym.NewRecorder(ring)
	d, err := simsym.DecideOpts(markedRing(t, 6), simsym.InstrQ, simsym.SchedFair,
		simsym.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Solvable {
		t.Fatalf("marked ring should be solvable in Q: %s", d.Reason)
	}
	kinds := ring.CountByKind()
	if len(kinds) < 5 {
		t.Fatalf("one DecideOpts run captured %d distinct event kinds (%v), want >= 5", len(kinds), kinds)
	}
	// The stream nests correctly: selection.decide wraps core.similarity.
	evs := ring.Events()
	if evs[0].Kind.String() != "phase_start" || evs[0].Name != "selection.decide" {
		t.Errorf("first event = %+v, want selection.decide phase start", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Kind.String() != "phase_end" || last.Name != "selection.decide" {
		t.Errorf("last event = %+v, want selection.decide phase end", last)
	}
	// Metrics aggregated alongside the events.
	var buf bytes.Buffer
	if err := rec.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"simsym_core_similarity_runs_total", "simsym_core_refine_rounds_total", "simsym_core_similarity_seconds_count"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics text missing %s:\n%s", want, buf.String())
		}
	}
}

// TestCheckOptsReport: CheckOpts proves the Fig1 SELECT program safe
// and its report carries the engine statistics the retired positional
// wrapper could not surface.
func TestCheckOptsReport(t *testing.T) {
	sys := simsym.Fig1()
	prog, _, err := simsym.BuildSelectOpts(sys, simsym.InstrL, simsym.SchedFair)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simsym.CheckOpts(sys, simsym.InstrL, prog, simsym.WithMaxStates(100_000))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Fatalf("Fig1 SELECT should verify safe within the budget: %+v", rep)
	}
	if rep.StatesExplored == 0 || rep.Stats.Transitions == 0 {
		t.Errorf("report should carry engine stats: %+v", rep)
	}

	// A tiny budget degrades gracefully into a partial report.
	tight, err := simsym.CheckOpts(sys, simsym.InstrL, prog, simsym.WithBudget(2, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Complete || tight.Exhausted != "states" || tight.StatesExplored != 2 {
		t.Errorf("tight budget report = %+v, want partial with Exhausted=states", tight)
	}

	// A canceled context reads as the "canceled" budget.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled, err := simsym.CheckOpts(sys, simsym.InstrL, prog, simsym.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if canceled.Complete && canceled.Exhausted != "" {
		t.Errorf("canceled report = %+v", canceled)
	}
}

// TestCheckDiningOptsBudgetAndSymmetry: budget mapping and symmetry
// reduction reach the dining checker through the options.
func TestCheckDiningOptsBudgetAndSymmetry(t *testing.T) {
	table, err := simsym.DiningFlipped(4)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simsym.DiningProgram("left", "right", 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := simsym.CheckDiningOpts(table, prog, simsym.WithMaxStates(100_000))
	if err != nil {
		t.Fatal(err)
	}
	sym, err := simsym.CheckDiningOpts(table, prog,
		simsym.WithBudget(100_000, time.Minute, 0),
		simsym.WithSymmetry(true))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Deadlocked != nil || sym.Deadlocked != nil {
		t.Error("flipped table must not deadlock")
	}
	if (plain.ExclusionViolated == nil) != (sym.ExclusionViolated == nil) {
		t.Error("symmetry reduction changed the exclusion verdict")
	}
	if sym.StatesExplored > plain.StatesExplored {
		t.Errorf("symmetry reduction explored more states (%d) than plain (%d)",
			sym.StatesExplored, plain.StatesExplored)
	}
}

// TestRunFair: seed determinism and observer capture.
func TestRunFair(t *testing.T) {
	sys := simsym.Fig2()
	prog, _, err := simsym.BuildSelectOpts(sys, simsym.InstrQ, simsym.SchedFair)
	if err != nil {
		t.Fatal(err)
	}
	ring := simsym.NewEventRing(0)
	rec := simsym.NewRecorder(ring)
	m1, steps1, err := simsym.RunFair(sys, simsym.InstrQ, prog, 300,
		simsym.WithSeed(42), simsym.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if sel := m1.SelectedProcs(); len(sel) != 1 {
		t.Fatalf("selected = %v, want exactly one", sel)
	}
	if steps1 == 0 {
		t.Fatal("no steps executed")
	}
	if got := int(ring.Total()); got != steps1 {
		t.Errorf("observer captured %d sched-step events, want %d", got, steps1)
	}
	if rec.Metrics().Counter("machine.steps").Value() != int64(steps1) {
		t.Error("machine.steps counter should equal executed steps")
	}
	m2, steps2, err := simsym.RunFair(sys, simsym.InstrQ, prog, 300, simsym.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if steps1 != steps2 || m1.Fingerprint() != m2.Fingerprint() {
		t.Error("same seed must reproduce the identical run")
	}
}
