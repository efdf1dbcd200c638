package partition

import (
	"math/rand"
	"testing"
)

// AppendSignature mirrors dfa.Signature as tokens, so the dfa-based
// tests drive the interned token path of FixpointWorklist.
func (d *dfa) AppendSignature(buf []uint64, i int, label func(int) int) []uint64 {
	for _, t := range d.next[i] {
		buf = append(buf, uint64(int64(label(t))))
	}
	return buf
}

func TestSigTableInternsDenseIDs(t *testing.T) {
	var tab SigTable
	seqs := [][]uint64{
		{},
		{1},
		{1, 0},
		{0, 1},
		{1, 0, 0},
		{^uint64(0)},
	}
	for want, s := range seqs {
		if got := tab.Intern(s); got != want {
			t.Errorf("Intern(%v) = %d, want %d", s, got, want)
		}
	}
	if tab.Len() != len(seqs) {
		t.Errorf("Len = %d, want %d", tab.Len(), len(seqs))
	}
	// Re-interning returns the same ids, in any order.
	for want := len(seqs) - 1; want >= 0; want-- {
		if got := tab.Intern(seqs[want]); got != want {
			t.Errorf("re-Intern(%v) = %d, want %d", seqs[want], got, want)
		}
		if got := tab.Tokens(want); len(got) != len(seqs[want]) {
			t.Errorf("Tokens(%d) = %v, want %v", want, got, seqs[want])
		}
	}
}

func TestSigTableCopiesCallerBuffer(t *testing.T) {
	var tab SigTable
	buf := []uint64{7, 8, 9}
	id := tab.Intern(buf)
	buf[0] = 99 // caller reuses the buffer
	if got := tab.Intern([]uint64{7, 8, 9}); got != id {
		t.Errorf("mutating the caller buffer changed the interned tokens: got %d, want %d", got, id)
	}
	if got := tab.Intern(buf); got == id {
		t.Error("distinct tokens interned to the same id")
	}
}

func TestSigTableReset(t *testing.T) {
	var tab SigTable
	tab.Intern([]uint64{1, 2})
	tab.Intern([]uint64{3})
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tab.Len())
	}
	if got := tab.Intern([]uint64{3}); got != 0 {
		t.Errorf("first Intern after Reset = %d, want 0", got)
	}
}

func TestSortTokenPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		m := rng.Intn(40)
		toks := make([]uint64, 2*m)
		for i := range toks {
			toks[i] = uint64(rng.Intn(5))
		}
		SortTokenPairs(toks)
		for i := 2; i < len(toks); i += 2 {
			a0, a1 := toks[i-2], toks[i-1]
			b0, b1 := toks[i], toks[i+1]
			if a0 > b0 || (a0 == b0 && a1 > b1) {
				t.Fatalf("trial %d: pairs out of order at %d: %v", trial, i, toks)
			}
		}
	}
}
