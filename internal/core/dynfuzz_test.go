package core

import (
	"fmt"
	"testing"

	"simsym/internal/system"
)

// churnFamily decodes byte b into a seed topology: every shipped family
// is reachable, so the fuzzer starts traces from each of them.
func churnFamily(b, size byte) (*system.System, error) {
	n := 2 + int(size)%10
	switch b % 9 {
	case 0:
		return system.Fig1(), nil
	case 1:
		return system.Fig2(), nil
	case 2:
		return system.Fig3(), nil
	case 3:
		return system.Ring(n)
	case 4:
		return system.Dining(n)
	case 5:
		return system.DiningFlipped(4 + 2*(n%3))
	case 6:
		return system.Star(n)
	case 7:
		return system.Tree(n)
	default:
		return system.QOverSWitness(), nil
	}
}

// FuzzIncrementalSimilarity decodes arbitrary bytes into a churn trace —
// crash, restart, clone-join, leave, rewire, re-init — over a fuzzer-
// chosen topology family and rule, and after EVERY event cross-checks
// the incremental labels against a full Similarity recompute of the
// snapshot. Any divergence between the dynamic split/merge repair and
// the static oracle is a crash.
func FuzzIncrementalSimilarity(f *testing.F) {
	for fam := byte(0); fam < 9; fam++ {
		f.Add([]byte{fam, 5, 0, 0, 1, 1, 2, 2, 3, 0, 4, 7, 1, 3})
		f.Add([]byte{fam, 3, 1, 2, 0, 3, 9, 0, 0, 5, 1, 6, 2})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		sys, err := churnFamily(data[0], data[1])
		if err != nil {
			t.Fatalf("family: %v", err)
		}
		rule := RuleQ
		if data[2]%2 == 1 {
			rule = RuleSetS
		}
		d, err := NewDynSystem(sys, rule, Config{})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		check := func() {
			t.Helper()
			if err := d.Check(); err != nil {
				t.Fatalf("invariant audit: %v", err)
			}
			got := d.Labeling()
			want, err := Similarity(got.Sys, rule)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			for i := range want.ProcLabels {
				if got.ProcLabels[i] != want.ProcLabels[i] {
					t.Fatalf("divergence at proc %s: %v vs %v", got.Sys.ProcIDs[i], got.ProcLabels, want.ProcLabels)
				}
			}
			for v := range want.VarLabels {
				if got.VarLabels[v] != want.VarLabels[v] {
					t.Fatalf("divergence at var %s: %v vs %v", got.Sys.VarIDs[v], got.VarLabels, want.VarLabels)
				}
			}
		}
		check()

		events := data[3:]
		if len(events) > 60 {
			events = events[:60] // keep the oracle affordable
		}
		joined := 0
		for k := 0; k+1 < len(events); k += 2 {
			op, arg := events[k], events[k+1]
			procs := d.ProcIDs()
			p := procs[int(arg)%len(procs)]
			switch op % 7 {
			case 0:
				if _, err := d.Apply(Mutation{Op: OpCrash, Proc: p}); err != nil {
					t.Fatalf("crash %s: %v", p, err)
				}
			case 1:
				if _, err := d.Apply(Mutation{Op: OpRestart, Proc: p}); err != nil {
					t.Fatalf("restart %s: %v", p, err)
				}
			case 2: // clone-join: adopt p's bindings wholesale
				bind, err := d.Bindings(p)
				if err != nil {
					t.Fatal(err)
				}
				id := fmt.Sprintf("j%d", joined)
				joined++
				if _, err := d.Apply(Mutation{Op: OpAddProc, Proc: id, Init: "0", Bind: bind}); err != nil {
					t.Fatalf("join %s: %v", id, err)
				}
			case 3: // leave (never the last processor)
				if d.NumProcs() > 1 {
					if _, err := d.Apply(Mutation{Op: OpRemoveProc, Proc: p}); err != nil {
						t.Fatalf("leave %s: %v", p, err)
					}
				}
			case 4: // rewire p's (arg-chosen) name to an (arg-chosen) var
				names := d.Names()
				name := names[int(arg)%len(names)]
				vars := d.VarIDs()
				v := vars[int(arg/3)%len(vars)]
				if _, err := d.Apply(Mutation{Op: OpRewire, Proc: p, Name: string(name), Var: v}); err != nil {
					t.Fatalf("rewire %s: %v", p, err)
				}
			case 5:
				if _, err := d.Apply(Mutation{Op: OpSetProcInit, Proc: p, Init: fmt.Sprintf("s%d", arg%3)}); err != nil {
					t.Fatalf("set init %s: %v", p, err)
				}
			default:
				vars := d.VarIDs()
				v := vars[int(arg)%len(vars)]
				if _, err := d.Apply(Mutation{Op: OpSetVarInit, Var: v, Init: fmt.Sprintf("w%d", arg%3)}); err != nil {
					t.Fatalf("set var init %s: %v", v, err)
				}
			}
			check()
		}
	})
}
