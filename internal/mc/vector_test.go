package mc

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"simsym/internal/canon"
	"simsym/internal/machine"
	"simsym/internal/system"
)

// TestVectorRoundTrip pins the two premises the checker's frontier rests
// on: a vector alone rebuilds its state through the component table
// (compTable.load), and a step's touched set (machine.Touched) names
// every component the step changed. Along seeded random walks — random
// programs over Fig1, Fig2 and the flipped table of four under S, L and
// Q, with Post/Peek multisets, halting, running off the end and stutter
// steps — every state is expanded the way the checker expands it: each
// processor's pool machine is rewritten from its last child's vector to
// the parent's, its touched list is emptied, it steps, and the parent's
// vector with the touched components re-interned is the child's. Every
// loaded parent and every child must spell its state's full key: the
// uvarint-prefixed concatenation of its vector's windows equals
// AppendStateKey, and two vectors are equal exactly when their keys are.
// Under Q the key holds every subvalue slot, in its poster's window, so
// the key check covers who posted what. The reference key comes from replaying the state's schedule on a fresh
// machine, which encodes every window from scratch: the walked machines
// are only as faithful as the stored values and the touched lists, the
// very things under test.
func TestVectorRoundTrip(t *testing.T) {
	flipped4, err := system.DiningFlipped(4)
	if err != nil {
		t.Fatal(err)
	}
	var stutters, touchedVars int
	for _, topo := range []struct {
		name string
		sys  *system.System
	}{{"fig1", system.Fig1()}, {"fig2", system.Fig2()}, {"flipped4", flipped4}} {
		for _, instr := range []system.InstrSet{system.InstrS, system.InstrL, system.InstrQ} {
			for seed := int64(0); seed <= 6; seed++ {
				name := fmt.Sprintf("%s/%v/seed=%d", topo.name, instr, seed)
				rng := rand.New(rand.NewSource(seed))
				// Seed 0 runs off the end of a program without a halt;
				// random programs always end in one.
				prog, err := offTheEnd(topo.sys.Names[0], instr)
				if seed > 0 {
					prog, err = machine.RandomProgram(rng, topo.sys.Names, instr, 2+rng.Intn(7))
				}
				if err != nil {
					t.Fatal(err)
				}
				factory := func() *machine.Machine {
					m, err := machine.New(topo.sys, instr, prog)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				s, v := walkVectors(t, name, rng, factory, 60)
				stutters += s
				touchedVars += v
			}
		}
	}
	if stutters == 0 || touchedVars == 0 {
		t.Fatalf("walks never exercised a stutter (%d) or a variable write (%d)", stutters, touchedVars)
	}
}

// offTheEnd is a short program with a shared access, a jump and no
// halt, so every processor halts by running off its end.
func offTheEnd(name system.Name, instr system.InstrSet) (*machine.Program, error) {
	b := machine.NewBuilder()
	b.Compute(func(r *machine.Regs) { r.Set(b.Sym("x"), 1) })
	b.Jump("access")
	b.Label("access")
	if instr == system.InstrQ {
		b.Post(name, "x")
	} else {
		b.Write(name, "x")
	}
	return b.Build()
}

// walkOp is one mutation on a walk: a schedule step, or one of the fault
// model's crash and lock drop.
type walkOp struct {
	kind byte // 's' step, 'c' crash, 'd' lock drop
	arg  int
}

func (op walkOp) apply(m *machine.Machine) error {
	switch op.kind {
	case 'c':
		return m.Crash(op.arg)
	case 'd':
		return m.DropLock(op.arg)
	}
	return m.Step(op.arg)
}

// walkVectors runs one random walk of the given length from a fresh
// machine, checking every successor of every state on it, and returns
// how many successors were stutters and how many touched a variable.
// Now and then a crash or lock drop lands on a successor after its step,
// as the fault harness injects them.
func walkVectors(t *testing.T, name string, rng *rand.Rand, factory func() *machine.Machine, length int) (stutters, touchedVars int) {
	t.Helper()
	var ct compTable
	m := factory()
	np, nv, w := m.NumProcs(), m.NumVars(), m.NumProcs()+m.NumVars()
	keyToVec := map[string]string{}
	vecToKey := map[string]string{}
	var walk []walkOp // the walk so far, from the initial state
	// check verifies m, reached by walk plus last (a successor's ops, if
	// any), against its vector.
	check := func(m *machine.Machine, vec []uint32, last ...walkOp) {
		t.Helper()
		fresh := factory()
		for _, op := range slices.Concat(walk, last) {
			if err := op.apply(fresh); err != nil {
				t.Fatal(err)
			}
		}
		key := fresh.AppendStateKey(nil, nil, nil)
		var spelled []byte
		for _, id := range vec {
			spelled = canon.AppendLenPrefixed(spelled, string(ct.window(id)))
		}
		if !bytes.Equal(spelled, key) {
			t.Fatalf("%s: vector %v spells\n%q\nbut the state key is\n%q", name, vec, spelled, key)
		}
		if got := m.AppendStateKey(nil, nil, nil); !bytes.Equal(got, key) {
			t.Fatalf("%s: cached key\n%q\ndiverged from the replayed key\n%q", name, got, key)
		}
		vs := fmt.Sprint(vec)
		if prev, ok := keyToVec[string(key)]; ok && prev != vs {
			t.Fatalf("%s: one key, two vectors: %s and %s", name, prev, vs)
		}
		if prev, ok := vecToKey[vs]; ok && prev != string(key) {
			t.Fatalf("%s: vector %s stands for two keys", name, vs)
		}
		keyToVec[string(key)], vecToKey[vs] = vs, string(key)
	}

	curVec := make([]uint32, w)
	if err := ct.vector(curVec, m); err != nil {
		t.Fatal(err)
	}
	check(m, curVec)
	pool := make([]machine.Machine, np)
	ops := make([][]walkOp, np)
	vecs := make([]uint32, np*w)
	for p := range pool {
		m.CloneInto(&pool[p])
		copy(vecs[p*w:(p+1)*w], curVec)
	}
	for step := 0; step < length; step++ {
		for p := range pool {
			child := &pool[p]
			vec := vecs[p*w : (p+1)*w]
			ct.load(child, vec, curVec)
			check(child, curVec)
			child.ResetTouched()
			ops[p] = append(ops[p][:0], walkOp{'s', p})
			if rng.Intn(40) == 0 {
				ops[p] = append(ops[p], walkOp{'c', rng.Intn(np)})
			}
			if rng.Intn(10) == 0 {
				ops[p] = append(ops[p], walkOp{'d', rng.Intn(nv)})
			}
			for _, op := range ops[p] {
				if err := op.apply(child); err != nil {
					t.Fatalf("%s: %c %d: %v", name, op.kind, op.arg, err)
				}
			}
			touched, _ := child.Touched()
			for _, c := range touched {
				if int(c) >= np {
					touchedVars++
				}
			}
			if err := ct.childVector(vec, curVec, child); err != nil {
				t.Fatal(err)
			}
			if slices.Equal(vec, curVec) {
				stutters++
			}
			check(child, vec, ops[p]...)
		}
		// Continue from one child: like the checker, keep only its vector.
		p := rng.Intn(np)
		curVec = append(curVec[:0], vecs[p*w:(p+1)*w]...)
		walk = append(walk, ops[p]...)
	}
	return stutters, touchedVars
}
