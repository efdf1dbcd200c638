package machine

import (
	"bytes"
	"testing"

	"simsym/internal/system"
)

// warmQMachine builds a Fig2 Q-machine and runs each processor three
// steps, so its windows carry set locals, posts and peek results.
func warmQMachine(t *testing.T) *Machine {
	t.Helper()
	bl := NewBuilder()
	bl.Label("loop")
	bl.Post("n", "init")
	bl.Peek("n", "x")
	bl.Jump("loop")
	prog, err := bl.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(system.Fig2(), system.InstrQ, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := m.Step(i % 3); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestAppendPathsZeroAllocWarm pins the encoders' allocation contract:
// every Append* path encodes straight into the caller's buffer — zero
// allocations per call on a buffer with capacity, Q subvalue multisets
// included. A regression here silently reintroduces per-state garbage
// on every key.
func TestAppendPathsZeroAllocWarm(t *testing.T) {
	m := warmQMachine(t)
	key := m.AppendStateKey(nil, nil, nil)
	buf := make([]byte, 0, 4*len(key))

	if got := testing.AllocsPerRun(200, func() {
		buf = m.AppendStateKey(buf[:0], nil, nil)
	}); got != 0 {
		t.Errorf("AppendStateKey warm = %v allocs/op, want 0", got)
	}
	if !bytes.Equal(buf, key) {
		t.Fatal("warm AppendStateKey diverged from its own first encoding")
	}

	// The keyed (relabeling) path runs the same encoders.
	idP := make([]int, m.NumProcs())
	for i := range idP {
		idP[i] = i
	}
	idV := make([]int, len(m.varVal))
	for i := range idV {
		idV[i] = i
	}
	if got := testing.AllocsPerRun(200, func() {
		buf = m.AppendStateKey(buf[:0], idP, idV)
	}); got != 0 {
		t.Errorf("AppendStateKey keyed warm = %v allocs/op, want 0", got)
	}
	if !bytes.Equal(buf, key) {
		t.Fatal("identity-permuted key diverged from the plain key")
	}

	if got := testing.AllocsPerRun(200, func() {
		buf = m.AppendProcFingerprint(buf[:0], 0)
	}); got != 0 {
		t.Errorf("AppendProcFingerprint warm = %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		buf = m.AppendVarFingerprint(buf[:0], 0)
	}); got != 0 {
		t.Errorf("AppendVarFingerprint warm = %v allocs/op, want 0", got)
	}
}
