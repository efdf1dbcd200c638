package machine

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"simsym/internal/system"
)

// touchedProg reads its right variable, writes it back, locks its left
// variable and halts: one frame-only step, then one step each that also
// changes the right and the left variable, then a frame-only halt.
func touchedProg(t *testing.T) *Program {
	t.Helper()
	return mustProg(t, func(b *Builder) {
		b.Read("right", "x")
		b.Write("right", "x")
		b.Lock("left", "got")
		b.Halt()
	})
}

// aliasingSystem is a system in which p1 gives v1 both names while p0
// names v0 and v1: one processor names one variable twice.
func aliasingSystem() *system.System {
	return &system.System{
		Names:    []system.Name{"a", "b"},
		ProcIDs:  []string{"p0", "p1"},
		VarIDs:   []string{"v0", "v1"},
		Nbr:      [][]int{{0, 1}, {1, 1}},
		ProcInit: []string{"0", "0"},
		VarInit:  []string{"0", "0"},
	}
}

// TestStepWritesOnlyItsFrameAndVar pins the contract the model checker's
// step memo rests on: a step of processor p changes no component and no
// window other than p's and those of the variable StepVar reports, and
// no variable's at all when StepVar reports -1. Along seeded random walks
// of random S, L and Q programs over Fig1, Fig2, the flipped table of
// four and a system that aliases a variable, every processor's step from
// every visited state is compared with the state before it.
func TestStepWritesOnlyItsFrameAndVar(t *testing.T) {
	flipped4, err := system.DiningFlipped(4)
	if err != nil {
		t.Fatal(err)
	}
	var shared, none int
	for _, topo := range []struct {
		name string
		sys  *system.System
	}{{"fig1", system.Fig1()}, {"fig2", system.Fig2()}, {"flipped4", flipped4}, {"aliasing", aliasingSystem()}} {
		for _, instr := range []system.InstrSet{system.InstrS, system.InstrL, system.InstrQ} {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				prog, err := RandomProgram(rng, topo.sys.Names, instr, 2+rng.Intn(7))
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(topo.sys, instr, prog)
				if err != nil {
					t.Fatal(err)
				}
				np, nv := m.NumProcs(), m.NumVars()
				window := func(m *Machine, c int) []byte {
					if c < np {
						return m.AppendProcFingerprint(nil, c)
					}
					return m.AppendVarFingerprint(nil, c-np)
				}
				for range 60 {
					for p := range np {
						fr := m.Component(p).Frame
						v := m.StepVar(p, &fr)
						if v >= 0 {
							shared++
						} else {
							none++
						}
						c := m.Clone()
						if err := c.Step(p); err != nil {
							t.Fatal(err)
						}
						for comp := range np + nv {
							if comp == p || v >= 0 && comp == np+v {
								continue
							}
							if !reflect.DeepEqual(m.Component(comp), c.Component(comp)) || !bytes.Equal(window(m, comp), window(c, comp)) {
								t.Fatalf("%s/%v/seed=%d: a step of %d (StepVar %d) changed component %d", topo.name, instr, seed, p, v, comp)
							}
						}
					}
					if err := m.Step(rng.Intn(np)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if shared == 0 || none == 0 {
		t.Fatalf("the walks never stepped with (%d) or without (%d) a variable", shared, none)
	}
}

// TestCloneKeyMatchesReplay: the key of a machine and of its clone,
// each stepped on after the copy, equals a fresh replay's of the same
// schedule.
func TestCloneKeyMatchesReplay(t *testing.T) {
	prog := touchedProg(t)
	sys, err := system.Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(sys, system.InstrL, prog)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(schedule ...int) []byte {
		t.Helper()
		r, err := New(sys, system.InstrL, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(schedule); err != nil {
			t.Fatal(err)
		}
		return r.AppendStateKey(nil, nil, nil)
	}
	if _, err := m.Run([]int{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()

	if err := m.Step(2); err != nil {
		t.Fatal(err)
	}
	if want := replay(0, 1, 0, 2); !bytes.Equal(m.AppendStateKey(nil, nil, nil), want) {
		t.Error("the original's key diverged from a replay")
	}

	if !bytes.Equal(c.AppendStateKey(nil, nil, nil), replay(0, 1, 0)) {
		t.Error("clone: key diverged from a replay")
	}
	if err := c.Step(1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.AppendStateKey(nil, nil, nil), replay(0, 1, 0, 1)) {
		t.Error("clone: key after a step diverged from a replay")
	}
}
