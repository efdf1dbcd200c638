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
// (compTable.load), and the step memo turns a parent's vector into each
// child's. Along seeded random walks — random programs over Fig1, Fig2
// and the flipped table of four under S, L and Q, with Post/Peek
// multisets, halting, running off the end and stutter steps — every
// processor's successor of every state is made the way the checker makes
// it (checker.successor).
// Each child's vector must equal the vector of a fresh machine that
// replays the child's schedule and interns every window, whether the
// memo hit or missed; its hash, the parent's xor the memo entry's
// delta, must equal its vector's full hash (hashVec), and its stutter
// bit must say whether its vector is the parent's. Every loaded parent
// and every child must spell
// its state's full key: the uvarint-prefixed concatenation of its
// vector's windows equals AppendStateKey, and two vectors are equal
// exactly when their keys are. Under Q the key holds every subvalue
// slot, in its poster's window, so the key check covers who posted
// what. The reference key comes from the replay, which encodes every
// window from scratch: the walked vectors are only as faithful as the
// stored values and the memo, the very things under test.
func TestVectorRoundTrip(t *testing.T) {
	flipped4, err := system.DiningFlipped(4)
	if err != nil {
		t.Fatal(err)
	}
	var stutters, varSteps, hits int
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
				s, v, h := walkVectors(t, name, rng, factory, 60)
				stutters += s
				varSteps += v
				hits += h
			}
		}
	}
	if stutters == 0 || varSteps == 0 || hits == 0 {
		t.Fatalf("walks never exercised a stutter (%d), a variable access (%d) or a memo hit (%d)", stutters, varSteps, hits)
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
// machine, stepping every processor from every state on it with a
// checker's successor, and returns how
// many successors were stutters, how many steps accessed a variable and
// how many the memo answered. Now and then a crash or lock drop lands on
// the state the walk continues from, as the fault harness injects them.
func walkVectors(t *testing.T, name string, rng *rand.Rand, factory func() *machine.Machine, length int) (stutters, varSteps, hits int) {
	t.Helper()
	m := factory()
	np, nv, w := m.NumProcs(), m.NumVars(), m.NumProcs()+m.NumVars()
	c := &checker{nProcs: np, width: w, idx: newStateIndex(w), root: m, stats: &Stats{}}
	recs := make([]uint32, np*(w+2)) // processor p's successor record at p·(W+2)
	ct := &c.idx.comps
	load := func(vec []uint32) *machine.Machine {
		ct.load(c.m, c.mVec, vec)
		return c.m
	}
	keyToVec := map[string]string{}
	vecToKey := map[string]string{}
	var walk []walkOp // the walk so far, from the initial state
	// check verifies vec, the state reached by walk plus last, against a
	// fresh machine that replays them.
	check := func(vec []uint32, last ...walkOp) {
		t.Helper()
		fresh := factory()
		for _, op := range slices.Concat(walk, last) {
			if err := op.apply(fresh); err != nil {
				t.Fatal(err)
			}
		}
		freshVec := make([]uint32, w)
		if err := ct.vector(freshVec, fresh); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(freshVec, vec) {
			t.Fatalf("%s: expansion gave the vector %v, a fresh step and intern %v", name, vec, freshVec)
		}
		key := fresh.AppendStateKey(nil, nil, nil)
		var spelled []byte
		for _, id := range vec {
			spelled = canon.AppendLenPrefixed(spelled, string(ct.window(id)))
		}
		if !bytes.Equal(spelled, key) {
			t.Fatalf("%s: vector %v spells\n%q\nbut the state key is\n%q", name, vec, spelled, key)
		}
		if got := load(vec).AppendStateKey(nil, nil, nil); !bytes.Equal(got, key) {
			t.Fatalf("%s: loaded key\n%q\ndiverged from the replayed key\n%q", name, got, key)
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

	// cur is the frontier record of the walk's state: its vector, then
	// the vector's hash in two words.
	cur := make([]uint32, w+2)
	curVec := cur[:w]
	if err := ct.vector(curVec, m); err != nil {
		t.Fatal(err)
	}
	putHash(cur[w:], hashVec(curVec))
	c.m, c.mVec = m.Clone(), slices.Clone(curVec)
	check(curVec)
	for range length {
		for p := range np {
			rec := recs[p*(w+2) : (p+1)*(w+2)]
			misses := c.stats.MemoMisses
			e, err := c.successor(cur, rec, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if c.stats.MemoMisses == misses {
				hits++
			}
			vec := rec[:w]
			if got, want := getHash(rec[w:]), hashVec(vec); got != want {
				t.Fatalf("%s: the step of %d from %v reaches %v with hash %#x; its full hash is %#x", name, p, curVec, vec, got, want)
			}
			stutter := slices.Equal(vec, curVec)
			if selfLoop := e.f2 == e.f && e.v2 == e.v; selfLoop != stutter {
				t.Fatalf("%s: the step of %d from %v has stutter bit %v, but reaches %v", name, p, curVec, selfLoop, vec)
			}
			if stutter {
				stutters++
			}
			if m.StepVar(p, ct.frame(curVec[p])) >= 0 {
				varSteps++
			}
			check(vec, walkOp{'s', p})
		}
		// Continue from one child: like the checker, keep only its record.
		p := rng.Intn(np)
		copy(cur, recs[p*(w+2):(p+1)*(w+2)])
		walk = append(walk, walkOp{'s', p})
		op := walkOp{'c', rng.Intn(np)}
		if rng.Intn(2) == 0 {
			op = walkOp{'d', rng.Intn(nv)}
		}
		if rng.Intn(10) == 0 {
			if err := op.apply(load(curVec)); err != nil {
				t.Fatalf("%s: %c %d: %v", name, op.kind, op.arg, err)
			}
			if err := ct.vector(curVec, c.m); err != nil {
				t.Fatal(err)
			}
			putHash(cur[w:], hashVec(curVec))
			copy(c.mVec, curVec)
			walk = append(walk, op)
			check(curVec)
		}
	}
	return stutters, varSteps, hits
}

// TestStepSlotFallback: the reader of readAndBump reads a from one
// frame while the bumper writes it, so that frame's step slot meets a's
// four ids, and a step whose id is not its last entry's takes the hashed
// lookup, which answers when a returns to 1. Counted by hand, one memo
// entry per (processor, frame, variable id) key. The reader: its branch
// and first reset (2), its read from one frame at each of a's four
// values (4), its reset after each (4) and its jump (1). The bumper: its
// branch (1), four sets (4), four writes, each over the one value a
// holds then (4), its halt and the halted stutter (2). So 22 entries,
// each a miss once, and the counts the walk's.
func TestStepSlotFallback(t *testing.T) {
	sys, set, prog := walkFixture(t, fixSlotFallback, 0, 0, 0, 0, 0, 0, 0)
	factory := func() (*machine.Machine, error) { return machine.New(sys, set, prog) }
	res, err := Check(factory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.MemoEntries != 22 || st.MemoMisses != 22 {
		t.Errorf("memo entries %d, misses %d; want 22 and 22", st.MemoEntries, st.MemoMisses)
	}
	walkExact(t, factory, nil, nil, nil, 0).assertCounts(t, res)
}

// TestStoredValuesNeverWritten: predicates read view machines, whose
// frames are the component table's stored values themselves, and only
// the scratch machine a memo miss loads by copy ever steps. After checks
// that run StatePreds, TransPreds and StuckBad, every stored value must
// still encode to its window: each stored state, loaded from its vector,
// spells its ids' windows.
func TestStoredValuesNeverWritten(t *testing.T) {
	flipped, flippedProg := flippedFourTable(t)
	type input struct {
		name  string
		sys   *system.System
		instr system.InstrSet
		prog  *machine.Program
	}
	inputs := []input{{"flipped4", flipped, system.InstrL, flippedProg}}
	for _, fix := range []struct {
		name string
		fix  uint8
	}{{"fig1-posts", fixFig1Posts}, {"fig2-posts", fixFig2Posts}, {"aliased-posts", fixAliasedPosts}} {
		sys, set, prog := walkFixture(t, fix.fix, 0, 0, 0, 0, 0, 0, 0)
		inputs = append(inputs, input{fix.name, sys, set, prog})
	}
	read := func(m *machine.Machine) string { exactState(m); return "" }
	for _, in := range inputs {
		factory := func() (*machine.Machine, error) { return machine.New(in.sys, in.instr, in.prog) }
		c := new(checker)
		res, err := c.check(factory, Options{
			StatePreds: []StatePredicate{read},
			TransPreds: []TransitionPredicate{func(before, after *machine.Machine, _ int) string { return read(before) + read(after) }},
			StuckBad:   NotAllHalted,
		})
		if err != nil || !res.Complete || res.Violation != nil {
			t.Fatalf("%s: result %+v, err %v; want a closed, safe space", in.name, res, err)
		}
		// Each stored state is loaded by copy into a fresh machine: under
		// Q a variable's window reads its posters' slots too.
		ct, m := &c.idx.comps, c.root.Clone()
		have := make([]uint32, c.width)
		if err := ct.vector(have, m); err != nil {
			t.Fatal(err)
		}
		vec := make([]uint32, c.width)
		for i := range c.idx.n {
			rec, rw := c.idx.record(i)
			for pos := range vec {
				vec[pos] = getID(rec, rw, pos)
			}
			ct.load(m, have, vec)
			for pos, id := range vec {
				var win []byte
				if np := m.NumProcs(); pos < np {
					win = m.AppendProcFingerprint(nil, pos)
				} else {
					win = m.AppendVarFingerprint(nil, pos-np)
				}
				if !bytes.Equal(win, ct.window(id)) {
					t.Fatalf("%s: state %d loads with position %d encoding as\n%q\nbut the window of its id %d is\n%q", in.name, i, pos, win, id, ct.window(id))
				}
			}
		}
	}
}
