package machine

import (
	"bytes"
	"encoding/binary"
	"testing"

	"simsym/internal/system"
)

// warmQMachine builds a Fig2 Q-machine, advances it, and primes every
// fingerprint window so the encode paths below run fully cached.
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
	m.AppendStateKey(nil, nil, nil)
	return m
}

// TestAppendPathsZeroAllocWarm pins the tentpole's allocation contract:
// once a machine's windows are primed, every Append* encode path is a
// pure copy out of the arena — zero allocations per call on a buffer
// with capacity. A regression here silently reintroduces the per-state
// garbage the arena exists to eliminate.
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

	// The keyed (relabeling) path reads the same cached windows.
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

// splitKey parses a state key into its uvarint length-prefixed component
// windows.
func splitKey(t *testing.T, key []byte, comps int) [][]byte {
	t.Helper()
	out := make([][]byte, 0, comps)
	for len(key) > 0 {
		n, w := binary.Uvarint(key)
		if w <= 0 || int(n) > len(key)-w {
			t.Fatalf("malformed component prefix at tail %q", key)
		}
		out = append(out, key[w:w+int(n)])
		key = key[w+int(n):]
	}
	if len(out) != comps {
		t.Fatalf("key holds %d components, want %d", len(out), comps)
	}
	return out
}

// TestEmptyWindowIsNotUncached documents the bitmask invariant: cache
// validity lives in the valid bitmask, never in the span. A zero-length
// window with its valid bit set is a legitimate cached value — the
// encode paths must emit it (a bare 0x00 length prefix) without
// re-encoding — while the same span bytes with the bit cleared must be
// ignored and the component re-encoded. An implementation that tested
// `span.n != 0` for validity would pass every other test and corrupt
// exactly this boundary.
func TestEmptyWindowIsNotUncached(t *testing.T) {
	m := warmQMachine(t)
	procs, vars := m.NumProcs(), len(m.varVal)
	const v = 0
	c := procs + v // v's slot in the component table

	// Manufacture an empty cached window for variable v at the arena
	// tail: a 0x00 uvarint length prefix followed by a zero-length body.
	m.fpArena = append(m.fpArena, 0)
	m.spans[c] = fpSpan{off: int32(len(m.fpArena)), n: 0}
	if !m.cached(c) {
		t.Fatal("setup: priming must have left v's valid bit set")
	}
	arenaLen := len(m.fpArena)

	key := m.AppendStateKey(nil, nil, nil)
	comps := splitKey(t, key, procs+vars)
	if len(comps[c]) != 0 {
		t.Fatalf("valid empty window re-encoded to %q; must be emitted as-is", comps[c])
	}
	if len(m.fpArena) != arenaLen {
		t.Errorf("arena grew %d → %d: the cached empty window was re-encoded", arenaLen, len(m.fpArena))
	}

	// The keyed path must honor the same invariant.
	idP := make([]int, procs)
	for i := range idP {
		idP[i] = i
	}
	idV := make([]int, vars)
	for i := range idV {
		idV[i] = i
	}
	if keyed := m.AppendStateKey(nil, idP, idV); !bytes.Equal(keyed, key) {
		t.Error("keyed path disagrees with fast path on the empty window")
	}

	// Clearing the valid bit — span bytes untouched — must force a
	// re-encode: empty window ≠ uncached, and uncached ≠ empty window.
	m.valid[c>>6] &^= 1 << uint(c&63)
	key2 := m.AppendStateKey(nil, nil, nil)
	comps2 := splitKey(t, key2, procs+vars)
	if len(comps2[c]) == 0 {
		t.Fatal("cleared valid bit still served the stale empty window")
	}
	want := m.appendVarFP(nil, v)
	if !bytes.Equal(comps2[c], want) {
		t.Errorf("re-encoded component = %q, want %q", comps2[c], want)
	}
}
