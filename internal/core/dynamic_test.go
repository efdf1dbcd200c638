package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"simsym/internal/obs"
	"simsym/internal/partition"
	"simsym/internal/system"
)

// assertDynOracle checks the incremental labels against a full
// Similarity recompute on the snapshot — equivalence-class identity,
// the PR's central acceptance criterion — plus the engine's invariant
// audit.
func assertDynOracle(t *testing.T, d *DynSystem) {
	t.Helper()
	if err := d.Check(); err != nil {
		t.Fatalf("invariant audit: %v", err)
	}
	got := d.Labeling()
	want, err := Similarity(got.Sys, d.Rule())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for i := range want.ProcLabels {
		if got.ProcLabels[i] != want.ProcLabels[i] {
			t.Fatalf("proc %s: incremental %d != oracle %d\ngot  %v\nwant %v",
				got.Sys.ProcIDs[i], got.ProcLabels[i], want.ProcLabels[i], got.ProcLabels, want.ProcLabels)
		}
	}
	for v := range want.VarLabels {
		if got.VarLabels[v] != want.VarLabels[v] {
			t.Fatalf("var %s: incremental %d != oracle %d\ngot  %v\nwant %v",
				got.Sys.VarIDs[v], got.VarLabels[v], want.VarLabels[v], got.VarLabels, want.VarLabels)
		}
	}
}

func TestDynSystemRingSpliceChurn(t *testing.T) {
	sys, err := system.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynSystem(sys, RuleQ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertDynOracle(t, d)
	if d.NumClasses() != 2 { // all procs alike, all vars alike
		t.Fatalf("ring classes = %d, want 2", d.NumClasses())
	}

	// Splice join between p0 and p1: one composite event, and because
	// the 9-ring is just as symmetric as the 8-ring, the certificate
	// should spare the merge pass and nothing should split.
	st, err := d.Apply(
		Mutation{Op: OpAddVar, Var: "vx", Init: "0"},
		Mutation{Op: OpAddProc, Proc: "px", Init: "0", Bind: []string{"v0", "vx"}},
		Mutation{Op: OpRewire, Proc: "p1", Name: "left", Var: "vx"},
	)
	if err != nil {
		t.Fatal(err)
	}
	assertDynOracle(t, d)
	if d.NumClasses() != 2 || d.NumProcs() != 9 {
		t.Fatalf("after splice: %d classes, %d procs", d.NumClasses(), d.NumProcs())
	}
	if st.Splits != 0 {
		t.Fatalf("symmetric splice split %d classes: %+v", st.Splits, st)
	}

	// Splice leave: rewire around px, drop it; vx cascades away.
	if _, err := d.Apply(
		Mutation{Op: OpRewire, Proc: "p1", Name: "left", Var: "v0"},
		Mutation{Op: OpRemoveProc, Proc: "px"},
	); err != nil {
		t.Fatal(err)
	}
	assertDynOracle(t, d)
	if d.NumProcs() != 8 || d.NumVars() != 8 || d.HasVar("vx") {
		t.Fatalf("unsplice left %d procs %d vars", d.NumProcs(), d.NumVars())
	}

	// Crash fully separates a ring (the marked-ring theorem), restart
	// must merge every distance class back together.
	if _, err := d.Apply(Mutation{Op: OpCrash, Proc: "p3"}); err != nil {
		t.Fatal(err)
	}
	assertDynOracle(t, d)
	if !d.Crashed("p3") || d.NumClasses() <= 2 {
		t.Fatalf("crash did not separate: %d classes", d.NumClasses())
	}
	st, err = d.Apply(Mutation{Op: OpRestart, Proc: "p3"})
	if err != nil {
		t.Fatal(err)
	}
	assertDynOracle(t, d)
	if d.NumClasses() != 2 {
		t.Fatalf("restart did not re-coarsen: %d classes", d.NumClasses())
	}
	if st.Merges == 0 && !st.Rebuild {
		t.Fatalf("restart produced no merges: %+v", st)
	}
}

// TestDynSystemAllFamilies drives a deterministic churn trace over every
// shipped topology family under both rules, cross-checking the oracle
// after every single event (the -race -count=2 acceptance leg).
func TestDynSystemAllFamilies(t *testing.T) {
	families := map[string]func() (*system.System, error){
		"fig1":          func() (*system.System, error) { return system.Fig1(), nil },
		"fig2":          func() (*system.System, error) { return system.Fig2(), nil },
		"fig3":          func() (*system.System, error) { return system.Fig3(), nil },
		"ring6":         func() (*system.System, error) { return system.Ring(6) },
		"dining5":       func() (*system.System, error) { return system.Dining(5) },
		"diningFlipped": func() (*system.System, error) { return system.DiningFlipped(6) },
		"star4":         func() (*system.System, error) { return system.Star(4) },
		"tree7":         func() (*system.System, error) { return system.Tree(7) },
		"qOverS":        func() (*system.System, error) { return system.QOverSWitness(), nil },
	}
	for name, build := range families {
		for _, rule := range []Rule{RuleQ, RuleSetS} {
			t.Run(name+"/"+rule.String(), func(t *testing.T) {
				sys, err := build()
				if err != nil {
					t.Fatal(err)
				}
				d, err := NewDynSystem(sys, rule, Config{})
				if err != nil {
					t.Fatal(err)
				}
				assertDynOracle(t, d)

				procs := d.ProcIDs()
				first, last := procs[0], procs[len(procs)-1]

				step := func(what string, _ interface{}, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					assertDynOracle(t, d)
				}
				var st interface{}
				var err2 error

				st, err2 = d.Apply(Mutation{Op: OpCrash, Proc: first})
				step("crash", st, err2)
				st, err2 = d.Apply(Mutation{Op: OpRestart, Proc: first})
				step("restart", st, err2)

				// Clone-join: a new processor with the last processor's
				// exact bindings; symmetric families should absorb it.
				bind, err := d.Bindings(last)
				if err != nil {
					t.Fatal(err)
				}
				st, err2 = d.Apply(Mutation{Op: OpAddProc, Proc: "zz", Init: "0", Bind: bind})
				step("clone-join", st, err2)

				st, err2 = d.Apply(Mutation{Op: OpSetProcInit, Proc: first, Init: "marked"})
				step("mark", st, err2)
				st, err2 = d.Apply(Mutation{Op: OpSetVarInit, Var: bind[0], Init: "markedvar"})
				step("markvar", st, err2)

				st, err2 = d.Apply(Mutation{Op: OpRewire, Proc: "zz", Name: string(d.Names()[0]), Var: bind[len(bind)-1]})
				step("rewire", st, err2)

				st, err2 = d.Apply(Mutation{Op: OpRemoveProc, Proc: "zz"})
				step("leave", st, err2)

				st, err2 = d.Apply(Mutation{Op: OpSetProcInit, Proc: first, Init: sys.ProcInit[0]})
				step("unmark", st, err2)
			})
		}
	}
}

func TestDynSystemApplyDiff(t *testing.T) {
	sys, err := system.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynSystem(sys, RuleQ, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Hot-reload to a bigger ring: same name alphabet, grown population.
	target, err := system.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyDiff(target); err != nil {
		t.Fatal(err)
	}
	assertDynOracle(t, d)
	if d.NumProcs() != 9 || d.NumClasses() != 2 {
		t.Fatalf("after grow: %d procs %d classes", d.NumProcs(), d.NumClasses())
	}

	// Shrink back down with a marked processor.
	target, err = system.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	target.ProcInit[2] = "leader"
	if _, err := d.ApplyDiff(target); err != nil {
		t.Fatal(err)
	}
	assertDynOracle(t, d)
	if d.NumProcs() != 4 || d.NumClasses() <= 2 {
		t.Fatalf("after shrink+mark: %d procs %d classes", d.NumProcs(), d.NumClasses())
	}

	// Mismatched name alphabet must be rejected.
	tree, err := system.Tree(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyDiff(tree); !errors.Is(err, ErrSystemShape) {
		t.Fatalf("name mismatch err = %v, want ErrSystemShape", err)
	}
}

// TestDynSystemApplyDiffRejectedLeavesEngine pins that a rejected diff
// edits nothing: both targets fail only after ApplyDiff would have
// emitted earlier mutations (a new proc, a new var and a rewire).
func TestDynSystemApplyDiffRejectedLeavesEngine(t *testing.T) {
	// p reads a, q reads x, over one name.
	base := &system.System{
		Names:    []system.Name{"n"},
		ProcIDs:  []string{"p", "q"},
		VarIDs:   []string{"a", "x"},
		Nbr:      [][]int{{0}, {1}},
		ProcInit: []string{"0", "1"},
		VarInit:  []string{"0", "0"},
	}
	targets := map[string]*system.System{
		// Two processors share the id r.
		"duplicate proc id": {
			Names:    []system.Name{"n"},
			ProcIDs:  []string{"p", "q", "r", "r"},
			VarIDs:   []string{"a", "x"},
			Nbr:      [][]int{{0}, {1}, {0}, {1}},
			ProcInit: []string{"0", "1", "0", "0"},
			VarInit:  []string{"0", "0"},
		},
		// q is rewired to a new var c before the new proc x, whose id
		// the live var x still holds.
		"proc id of a live var": {
			Names:    []system.Name{"n"},
			ProcIDs:  []string{"p", "q", "x"},
			VarIDs:   []string{"a", "c"},
			Nbr:      [][]int{{0}, {1}, {0}},
			ProcInit: []string{"0", "1", "0"},
			VarInit:  []string{"0", "0"},
		},
	}
	for name, target := range targets {
		t.Run(name, func(t *testing.T) {
			d, err := NewDynSystem(base, RuleQ, Config{})
			if err != nil {
				t.Fatal(err)
			}
			procs, vars, lab := d.ProcIDs(), d.VarIDs(), d.Labeling()
			if _, err := d.ApplyDiff(target); !errors.Is(err, ErrSystemShape) {
				t.Fatalf("ApplyDiff err = %v, want ErrSystemShape", err)
			}
			if got := d.ProcIDs(); !reflect.DeepEqual(got, procs) {
				t.Errorf("procs %v, want %v", got, procs)
			}
			if got := d.VarIDs(); !reflect.DeepEqual(got, vars) {
				t.Errorf("vars %v, want %v", got, vars)
			}
			if got := d.Labeling(); !reflect.DeepEqual(got, lab) {
				t.Errorf("labeling %v, want %v", got, lab)
			}
			assertDynOracle(t, d)
		})
	}
}

func TestDynSystemErrors(t *testing.T) {
	sys := system.Fig1()
	d, err := NewDynSystem(sys, RuleQ, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(Mutation{Op: OpCrash, Proc: "ghost"}); !errors.Is(err, system.ErrUnknownNode) {
		t.Fatalf("crash ghost: %v", err)
	}
	if _, err := d.Apply(Mutation{Op: OpAddProc, Proc: "p", Init: "0", Bind: []string{"v"}}); !errors.Is(err, ErrSystemShape) {
		t.Fatalf("dup proc: %v", err)
	}
	if _, err := d.Apply(Mutation{Op: OpAddProc, Proc: "p9", Init: "0", Bind: []string{"v", "v"}}); !errors.Is(err, ErrSystemShape) {
		t.Fatalf("bad bind arity: %v", err)
	}
	if _, err := d.Apply(Mutation{Op: OpRemoveVar, Var: "v"}); !errors.Is(err, system.ErrVarInUse) {
		t.Fatalf("remove bound var: %v", err)
	}
	if _, err := d.Apply(Mutation{Op: OpRemoveProc, Proc: "p"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(Mutation{Op: OpRemoveProc, Proc: "q"}); !errors.Is(err, system.ErrNoProcessors) {
		t.Fatalf("remove last proc: %v", err)
	}
	if _, err := d.Apply(Mutation{Op: OpRewire, Proc: "q", Name: "nope", Var: "v"}); !errors.Is(err, system.ErrUnknownName) {
		t.Fatalf("rewire bad name: %v", err)
	}
	// Engine still consistent after all the rejected edits.
	assertDynOracle(t, d)
	if _, err := NewDynSystem(sys, Rule(99), Config{}); !errors.Is(err, ErrBadRule) {
		t.Fatalf("bad rule: %v", err)
	}
}

// TestDynSystemObsCounters pins the satellite contract: relabel events
// and dyn.* counters flow when a recorder is attached.
func TestDynSystemObsCounters(t *testing.T) {
	sys, err := system.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(64)
	rec := obs.New(ring)
	d, err := NewDynSystem(sys, RuleQ, Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(Mutation{Op: OpCrash, Proc: "p0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(Mutation{Op: OpRestart, Proc: "p0"}); err != nil {
		t.Fatal(err)
	}
	events := ring.Events()
	found := 0
	for _, e := range events {
		if e.Kind.String() == "relabel" {
			found++
			if e.Name != "dyn" {
				t.Fatalf("relabel driver = %q", e.Name)
			}
		}
	}
	if found != 2 {
		t.Fatalf("relabel events = %d, want 2", found)
	}
}

// outEdgeLists copies every slot's OutEdges lists.
func outEdgeLists(g *graph) [][2][]int {
	out := make([][2][]int, g.Len())
	for i := range out {
		to, tags := g.OutEdges(i)
		out[i] = [2][]int{slices.Clone(to), slices.Clone(tags)}
	}
	return out
}

// TestOutEdgesUnchanged pins the zero-copy contract of graph.OutEdges:
// the drivers read the graph's own lists and never write through them.
// Under both rules, on Tree(63) as laid out and after churn that runs
// merge passes, every list is snapshot, then FixpointHopcroft,
// FixpointWorklist and Dyn updates run over the graph, and every list
// must read as before. The updates crash and restart processors, which
// changes init keys only, so settle and the merge pass re-read edges
// that did not change.
func TestOutEdgesUnchanged(t *testing.T) {
	for _, rule := range []Rule{RuleQ, RuleSetS} {
		for _, events := range []int{0, 200} {
			churnPasses := 0
			d := treeChurn(t, 63, events, rule, 3, func(_ *DynSystem, st partition.UpdateStats) {
				if st.MergePass {
					churnPasses++
				}
			})
			if events > 0 && churnPasses == 0 {
				t.Fatalf("%v: %d churn events ran no merge pass", rule, events)
			}
			want := outEdgeLists(d.g)
			check := func(after string) {
				t.Helper()
				if !reflect.DeepEqual(outEdgeLists(d.g), want) {
					t.Fatalf("%v after %d churn events: %s wrote through an OutEdges list", rule, events, after)
				}
			}
			if _, err := partition.FixpointHopcroft(d.g, nil); err != nil {
				t.Fatal(err)
			}
			check("FixpointHopcroft")
			if _, err := partition.FixpointWorklist(d.g, nil); err != nil {
				t.Fatal(err)
			}
			check("FixpointWorklist")
			passes := 0
			for _, id := range d.ProcIDs()[:16] {
				for _, op := range []MutOp{OpCrash, OpRestart} {
					st, err := d.Apply(Mutation{Op: op, Proc: id})
					if err != nil {
						t.Fatal(err)
					}
					if st.MergePass {
						passes++
					}
					check(fmt.Sprintf("Dyn.Update (%s %s)", op, id))
				}
			}
			if passes == 0 {
				t.Fatalf("%v: crash and restart ran no merge pass", rule)
			}
			assertDynOracle(t, d)
		}
	}
}
