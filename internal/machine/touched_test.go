package machine

import (
	"bytes"
	"slices"
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

// TestTouchedContract pins the set Touched reports, which the model
// checker trusts to name every component a child's step changed: nothing
// on a machine from New; on a copy, exactly the components changed since
// the copy was made, each once, until more than eight distinct ones have
// changed.
func TestTouchedContract(t *testing.T) {
	ring, err := system.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(ring, system.InstrL, touchedProg(t))
	if err != nil {
		t.Fatal(err)
	}
	np := int32(m.NumProcs())
	if _, ok := m.Touched(); ok {
		t.Fatal("a machine from New reported a touched list")
	}
	if err := m.Step(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Touched(); ok {
		t.Fatal("stepping a machine from New started a touched list")
	}
	touched := func(what string, m *Machine, want []int32) {
		t.Helper()
		got, ok := m.Touched()
		if !ok || !slices.Equal(got, want) {
			t.Errorf("%s: Touched = %v, %v; want %v, true", what, got, ok, want)
		}
	}
	touched("fresh clone", m.Clone(), nil)

	// Processor 1's right variable is v1 and its left is v0. Each step
	// runs on a fresh clone of the state before it.
	cur := m
	for _, st := range []struct {
		what string
		want []int32
	}{
		{"read", []int32{1}},
		{"write", []int32{1, np + 1}},
		{"lock", []int32{1, np + 0}},
		{"halt", []int32{1}},
		{"halted stutter", nil},
	} {
		c := cur.Clone()
		if err := c.Step(1); err != nil {
			t.Fatal(err)
		}
		touched(st.what, c, st.want)
		cur = c
	}

	// Steps on one copy accumulate, each component listed once.
	c := m.Clone()
	for i := 0; i < 3; i++ {
		if err := c.Step(2); err != nil {
			t.Fatal(err)
		}
	}
	touched("read, write, lock", c, []int32{2, np + 2, np + 1})

	// Every processor holds its left lock; crash all five and drop four
	// locks: the ninth distinct component overflows the list.
	held := m.Clone()
	for p := 0; p < int(np); p++ {
		for held.frameAt(p).PC < 3 {
			if err := held.Step(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	c = held.Clone()
	for p := 0; p < int(np); p++ {
		if err := c.Crash(p); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 3; v++ {
		if err := c.DropLock(v); err != nil {
			t.Fatal(err)
		}
	}
	touched("eight faults", c, []int32{0, 1, 2, 3, 4, np, np + 1, np + 2})
	if err := c.DropLock(3); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Touched(); ok {
		t.Errorf("nine distinct changes: Touched = %v, true; want ok=false", got)
	}

	// Under Q, loading a processor sets its subvalue in each variable it
	// names, so each of those is listed too: on Fig2, p1 names v1 and v3.
	q, err := New(system.Fig2(), system.InstrQ, mustProg(t, func(b *Builder) {
		b.Post("n", "init")
		b.Post("m", "init")
		b.Halt()
	}))
	if err != nil {
		t.Fatal(err)
	}
	posted := q.Clone()
	if _, err := posted.Run([]int{0, 0}); err != nil {
		t.Fatal(err)
	}
	c = q.Clone()
	c.SetComponent(0, posted.Component(0))
	touched("Q SetComponent", c, []int32{3, 5, 0})
}

// TestCloneLeavesCacheWithOriginal pins who owns the fingerprint cache:
// the machine New built keeps caching after it is cloned, and a clone
// has no cache, so its keys are fresh encodings that must equal a
// replay's.
func TestCloneLeavesCacheWithOriginal(t *testing.T) {
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
	m.AppendStateKey(nil, nil, nil)
	for comp := 0; comp < m.NumProcs()+m.NumVars(); comp++ {
		if !m.cached(comp) {
			t.Fatalf("component %d of the original is uncached after Clone and a full key", comp)
		}
	}
	if want := replay(0, 1, 0, 2); !bytes.Equal(m.AppendStateKey(nil, nil, nil), want) {
		t.Error("the original's cached key diverged from a replay")
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
	if c.spans != nil || c.cached(0) {
		t.Error("clone: a copy holds a fingerprint cache")
	}
}
