package main

import (
	"errors"
	"strings"
	"testing"

	"simsym/internal/mc"
)

func TestDecideAndRunQ(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-gen", "fig2", "-instr", "q", "-runs", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"solvable: true", "winner p3"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestDecideUnsolvable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-gen", "ring 4", "-instr", "l"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "solvable: false") {
		t.Errorf("ring should be unsolvable:\n%s", out.String())
	}
}

func TestDecideGeneralSchedules(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-gen", "fig2", "-instr", "q", "-sched", "general"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "solvable: false") {
		t.Errorf("general schedules should be unsolvable:\n%s", out.String())
	}
}

// TestVerifyFlagOnL: a check that closes prints a safe verdict, a spent
// state budget an inconclusive one, and a check that fails (here a
// MaxStates past the checker's uint32 node ids) is an error, not a
// verdict.
func TestVerifyFlagOnL(t *testing.T) {
	for _, tc := range []struct {
		maxStates, want string
		err             error
	}{
		{"600000", "verification: safe", nil},
		{"100", "verification: inconclusive (states budget spent after 100 states)", nil},
		{"5000000000", "", mc.ErrMaxStates},
	} {
		var out strings.Builder
		err := run([]string{"-gen", "fig1", "-instr", "l", "-runs", "1", "-verify", "-max-states", tc.maxStates}, &out)
		if tc.err != nil {
			if !errors.Is(err, tc.err) || strings.Contains(out.String(), "verification:") {
				t.Errorf("max-states %s: err = %v, output:\n%s\nwant %v and no verdict", tc.maxStates, err, out.String(), tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("max-states %s: output missing %q:\n%s", tc.maxStates, tc.want, out.String())
		}
	}
}

func TestArgErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-gen", "fig1", "-instr", "zzz"}, &out); err == nil {
		t.Error("bad instr should fail")
	}
	if err := run([]string{"-gen", "fig1", "-sched", "zzz"}, &out); err == nil {
		t.Error("bad sched should fail")
	}
	if err := run(nil, &out); err == nil {
		t.Error("missing system should fail")
	}
}

// TestFaultRunReplay: seed 7 crashes p1 and the run still converges;
// seed 6 crashes the distinguished p2 and the run honestly reports no
// convergence. Both replay byte-identically.
func TestFaultRunReplay(t *testing.T) {
	for _, tc := range []struct{ seed, crash, outcome string }{
		{"7", "fault slot 48: crash 1", "fault run: converged, winner p3"},
		{"6", "fault slot 23: crash 2", "fault run: no convergence within budget"},
	} {
		var out strings.Builder
		if err := run([]string{"-gen", "fig2", "-instr", "q", "-runs", "0",
			"-faults", "crash", "-seed", tc.seed, "-replay"}, &out); err != nil {
			t.Fatal(err)
		}
		got := out.String()
		for _, want := range []string{"fault run (seed " + tc.seed + ", faults crash)", tc.crash, tc.outcome, "replay: byte-identical"} {
			if !strings.Contains(got, want) {
				t.Errorf("seed %s: output missing %q:\n%s", tc.seed, want, got)
			}
		}
	}
}

func TestFaultRunRejectsUnknownClass(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-gen", "fig2", "-instr", "q", "-runs", "0",
		"-faults", "gremlins"}, &out); err == nil {
		t.Fatal("unknown fault class should be rejected")
	}
}
