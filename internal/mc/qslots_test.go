package mc

import (
	"bytes"
	"fmt"
	"testing"

	"simsym/internal/machine"
	"simsym/internal/system"
)

// countPosts is a Q program whose next post depends on who posted what:
// each processor peeks n, posts one more than the number of values it
// saw, forgets both and loops three times. A post overwrites only the
// poster's own subvalue, so two states with the same multiset under n
// but with the posters swapped have different successors.
//
//	i := 0; loop: peek n → x; y := len(x.Values)+1; post n ← y
//	x, y := nil, nil; i++ (one step); if i < 3 goto loop; halt
func countPosts(b *machine.Builder) {
	i, x, y := b.Sym("i"), b.Sym("x"), b.Sym("y")
	b.Compute(func(r *machine.Regs) { r.Set(i, 0) })
	b.Label("loop")
	b.Peek("n", "x")
	b.Compute(func(r *machine.Regs) { r.Set(y, len(r.Get(x).(machine.PeekResult).Values)+1) })
	b.Post("n", "y")
	b.Compute(func(r *machine.Regs) { r.Set(x, nil); r.Set(y, nil); r.Set(i, r.Int(i)+1) })
	b.JumpIf(func(r *machine.Regs) bool { return r.Int(i) < 3 }, "loop")
	b.Halt()
}

// TestQCheckMatchesSlotWalk: under Q the checker explores exactly the
// states, transitions, self-loops and dedup hits of a walk keyed on
// frames plus every subvalue slot, and under symmetry reduction exactly
// their orbits. A key that holds only each variable's multiset of
// subvalues explores fewer, merging states whose posters differ; one
// that drops the poster's slots from its window explores more than are
// reachable.
func TestQCheckMatchesSlotWalk(t *testing.T) {
	for _, tc := range []struct {
		name           string
		sys            *system.System
		states, orbits int
	}{
		{"fig1", system.Fig1(), 1690, 855},
		{"fig2", system.Fig2(), 30420, 15390},
	} {
		t.Run(tc.name, func(t *testing.T) {
			factory := factoryFor(t, tc.sys, system.InstrQ, countPosts)
			w := walkExact(t, factory, nil, nil, tc.sys, 0)
			if w.states != tc.states || w.orbits != tc.orbits {
				t.Fatalf("the walk reaches %d states in %d orbits, pinned %d in %d", w.states, w.orbits, tc.states, tc.orbits)
			}
			for _, sym := range []bool{false, true} {
				res, err := Check(factory, Options{SymmetryReduce: sym})
				if err != nil {
					t.Fatal(err)
				}
				want := w.states
				if sym {
					want = w.orbits
					if res.Stats.GroupOrder != 2 {
						t.Errorf("GroupOrder = %d, want 2", res.Stats.GroupOrder)
					}
				} else {
					w.assertCounts(t, res)
				}
				if !res.Complete || res.StatesExplored != want {
					t.Errorf("SymmetryReduce=%v: Check explored %d states (complete=%v), want %d", sym, res.StatesExplored, res.Complete, want)
				}
			}
		})
	}
}

// TestQPostersSwapped: on Fig1, p posting 1 and then q posting 2, and
// the same with p and q swapped, leave equal frames and the same
// multiset {1, 2} under n, but different states: the next post of each
// replaces a different value. Their keys must differ.
func TestQPostersSwapped(t *testing.T) {
	factory := factoryFor(t, system.Fig1(), system.InstrQ, countPosts)
	run := func(schedule ...int) *machine.Machine {
		m, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(schedule); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Each runs i := 0, peek, y := …, post and the clear with i++: five
	// steps.
	a := run(0, 0, 0, 0, 0, 1, 1, 1, 1, 1)
	b := run(1, 1, 1, 1, 1, 0, 0, 0, 0, 0)
	for p := 0; p < 2; p++ {
		if fa, fb := fmt.Sprintf("%#v", a.Component(p).Frame), fmt.Sprintf("%#v", b.Component(p).Frame); fa != fb {
			t.Fatalf("processor %d's frames differ: %s vs %s", p, fa, fb)
		}
	}
	if va, vb := a.AppendVarFingerprint(nil, 0), b.AppendVarFingerprint(nil, 0); !bytes.Equal(va, vb) {
		t.Fatalf("the multisets under n differ: %q vs %q", va, vb)
	}
	// Both are {1, 2}: the jump back and a peek show it.
	for _, m := range []*machine.Machine{a.Clone(), b.Clone()} {
		if _, err := m.Run([]int{0, 0}); err != nil {
			t.Fatal(err)
		}
		if x, _ := m.Local(0, "x"); fmt.Sprint(x) != "{0 [1 2]}" {
			t.Fatalf("p peeked %v, want {0 [1 2]}", x)
		}
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("swapped posters share the key %q", a.Fingerprint())
	}
	if exactState(a) == exactState(b) {
		t.Errorf("the two runs reached the same state; the test no longer swaps posters")
	}
}
