package machine

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"simsym/internal/system"
)

// frameAt, varValAt and lockedAt read one component straight from the
// machine's arrays, for the oracles and white-box tests.
func (m *Machine) frameAt(p int) *Frame { return &m.frames[p] }
func (m *Machine) varValAt(v int) any   { return m.varVal[v] }
func (m *Machine) lockedAt(v int) bool  { return m.locked[v] }

// copyCase is a machine in a state that exercises its instruction set:
// under S and L a variable holds a written value, under L one lock is
// held, and under Q every variable has posts.
type copyCase struct {
	name  string
	sys   *system.System
	instr system.InstrSet
	prog  func(*Builder)
	run   []int
}

func copyCases() []copyCase {
	ring, err := system.Ring(3)
	if err != nil {
		panic(err)
	}
	for p := range ring.ProcInit {
		ring.ProcInit[p] = fmt.Sprint("p", p)
	}
	sl := func(b *Builder) {
		b.Write("right", "init")
		b.Lock("left", "got")
		b.Read("right", "x")
		b.Halt()
	}
	return []copyCase{
		{"S", ring, system.InstrS, func(b *Builder) {
			b.Write("right", "init")
			b.Read("left", "x")
			b.Halt()
		}, []int{0, 0}},
		{"L", ring, system.InstrL, sl, []int{0, 0}},
		{"Q", system.Fig2(), system.InstrQ, func(b *Builder) {
			b.Post("n", "init")
			b.Peek("n", "x")
			b.Post("m", "x")
			b.Peek("m", "y")
			b.Halt()
		}, []int{0, 1, 0, 0, 2}},
	}
}

func (c copyCase) machine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(c.sys, c.instr, mustProg(t, c.prog))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(c.run); err != nil {
		t.Fatal(err)
	}
	return m
}

// stateOf is the state key of m together with the oracle encoding, two
// independent encoders of the same arrays, so a write that reached them
// through a copy shows in both.
func stateOf(m *Machine) string {
	return string(m.AppendStateKey(nil, nil, nil)) + "|" + m.FingerprintOracle()
}

// TestCloneIntoWarmAllocatesNothing pins the harness's per-step copy: once
// a destination has held a machine of the source's shape, copying into it
// again allocates nothing, under every instruction set.
func TestCloneIntoWarmAllocatesNothing(t *testing.T) {
	for _, c := range copyCases() {
		t.Run(c.name, func(t *testing.T) {
			m := c.machine(t)
			dst := m.Clone()
			if got := testing.AllocsPerRun(100, func() { m.CloneInto(dst) }); got != 0 {
				t.Errorf("CloneInto a warm destination = %v allocs, want 0", got)
			}
			if stateOf(dst) != stateOf(m) {
				t.Error("the warm copy's state differs from its source's")
			}
		})
	}
}

// TestCopiesAreIndependent: a copy shares no array with its source, in
// either direction. Each mutation — a step, a post, a crash, a lock
// drop, a SetComponent — applied to one side must change that side and
// leave the other side's state as it was, for a fresh Clone and for
// CloneInto a destination that held another machine. The mutated side's
// key must equal its own fresh clone's.
func TestCopiesAreIndependent(t *testing.T) {
	step := func(procs ...int) func(*Machine) error {
		return func(m *Machine) error {
			_, err := m.Run(procs)
			return err
		}
	}
	// set loads into m, with SetComponent, every component of kind
	// (processor or variable) that stepping procs on a copy of m changes.
	set := func(vars bool, procs ...int) func(*Machine) error {
		return func(m *Machine) error {
			o := m.Clone()
			if _, err := o.Run(procs); err != nil {
				return err
			}
			lo, hi := 0, m.NumProcs()
			if vars {
				lo, hi = hi, hi+m.NumVars()
			}
			for c := lo; c < hi; c++ {
				if x := o.Component(c); !slices.Equal(o.appendFP(nil, c), m.appendFP(nil, c)) {
					m.SetComponent(c, &x)
				}
			}
			return nil
		}
	}
	cases := copyCases()
	for _, tc := range []struct {
		machine int // index into copyCases
		what    string
		mutate  func(*Machine) error
	}{
		{0, "write step", step(1)},
		{0, "read step", step(2, 2)},
		{1, "write step", step(1)},
		{1, "lock step", step(1, 1)},
		{1, "crash", func(m *Machine) error { return m.Crash(2) }},
		{1, "lock drop", func(m *Machine) error {
			for v := 0; v < m.NumVars(); v++ {
				if m.Locked(v) {
					return m.DropLock(v)
				}
			}
			return fmt.Errorf("no lock held")
		}},
		{1, "SetComponent frame", set(false, 2)},
		{1, "SetComponent variable", set(true, 2)},
		{2, "post", step(1, 1)},
		{2, "peek", step(2)},
		{2, "SetComponent frame", set(false, 1)},
		{2, "SetComponent frame after a post", set(false, 1, 1)},
	} {
		c, other := cases[tc.machine], cases[(tc.machine+1)%len(cases)]
		for _, mode := range []string{"Clone", "CloneInto"} {
			for _, side := range []string{"source", "copy"} {
				name := fmt.Sprintf("%s %s, %s, mutate the %s", c.name, tc.what, mode, side)
				src := c.machine(t)
				cp := src.Clone()
				if mode == "CloneInto" {
					cp = other.machine(t)
					src.CloneInto(cp)
				}
				mut, watch := src, cp
				if side == "copy" {
					mut, watch = cp, src
				}
				was, mutWas := stateOf(watch), stateOf(mut)
				if err := tc.mutate(mut); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if stateOf(mut) == mutWas {
					t.Fatalf("%s: the mutation left its own machine unchanged", name)
				}
				if !bytes.Equal(mut.AppendStateKey(nil, nil, nil), mut.Clone().AppendStateKey(nil, nil, nil)) {
					t.Errorf("%s: the mutated machine's key differs from a fresh encoding's", name)
				}
				if stateOf(watch) != was {
					t.Errorf("%s: the other machine's state changed", name)
				}
			}
		}
	}
}

// TestCloneConcurrently: Clone and CloneInto only read their source, so
// goroutines may copy one machine at once (run under -race).
func TestCloneConcurrently(t *testing.T) {
	for _, c := range copyCases() {
		m := c.machine(t)
		want := m.AppendStateKey(nil, nil, nil)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := new(Machine)
				for i := 0; i < 20; i++ {
					m.CloneInto(dst)
					if !bytes.Equal(dst.AppendStateKey(nil, nil, nil), want) {
						t.Errorf("%s: CloneInto key differs from the source's", c.name)
						return
					}
					if !bytes.Equal(m.Clone().AppendStateKey(nil, nil, nil), want) {
						t.Errorf("%s: Clone key differs from the source's", c.name)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestCloneIntoOtherShape: CloneInto a destination that ran another
// system, program and instruction set gives the key a fresh Clone
// gives, and the two stay equal as both step on.
func TestCloneIntoOtherShape(t *testing.T) {
	cases := copyCases()
	for _, from := range cases {
		for _, into := range cases {
			if from.name == into.name {
				continue
			}
			m := from.machine(t)
			dst := into.machine(t)
			m.CloneInto(dst)
			fresh := m.Clone()
			for i, p := range []int{-1, 1, 2, 1, 0, 2, 2} {
				if p >= 0 {
					if err := dst.Step(p); err != nil {
						t.Fatal(err)
					}
					if err := fresh.Step(p); err != nil {
						t.Fatal(err)
					}
				}
				if stateOf(dst) != stateOf(fresh) {
					t.Fatalf("%s into %s: after %d steps the key differs from a fresh Clone's", from.name, into.name, i)
				}
			}
		}
	}
}
