package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"simsym/internal/canon"
)

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

// TestSigTableMatchesMapReference interns random token sequences over a
// small alphabet, so repeats are common, against a map[string]int
// reference across Reset windows of very different sizes: the table
// grows, and later windows reuse (and must fully clear) a large table.
// Ids must be dense in first-appearance order and Tokens must return
// what was interned.
func TestSigTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alphabet := []uint64{0, 1, 2, 3, 1 << 32, ^uint64(0)}
	var tab SigTable
	for w, inserts := range []int{40, 5000, 3, 700, 12000, 1, 300} {
		tab.Reset()
		ref := make(map[string]int)
		for k := 0; k < inserts; k++ {
			seq := make([]uint64, rng.Intn(6))
			for i := range seq {
				seq[i] = alphabet[rng.Intn(len(alphabet))]
			}
			key := fmt.Sprint(seq)
			want, seen := ref[key]
			if !seen {
				want = len(ref)
				ref[key] = want
			}
			if got := tab.Intern(seq); got != want {
				t.Fatalf("window %d insert %d: Intern(%v) = %d, want %d", w, k, seq, got, want)
			}
			if got := tab.Tokens(want); !slices.Equal(got, seq) {
				t.Fatalf("window %d: Tokens(%d) = %v, want %v", w, want, got, seq)
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("window %d: Len = %d, want %d", w, tab.Len(), len(ref))
		}
	}
}

// TestSigTableProbeWrapsAround interns sequences that all hash to the
// last slot, so their probe run wraps to the front of the table, then
// finds them again, before and after a Reset.
func TestSigTableProbeWrapsAround(t *testing.T) {
	var tab SigTable
	tab.Intern(nil)
	tab.Reset()
	mask := len(tab.slots) - 1
	var seqs [][]uint64
	for x := uint64(0); len(seqs) < 4; x++ {
		if s := []uint64{x}; int(canon.HashTokens(s))&mask == mask {
			seqs = append(seqs, s)
		}
	}
	for round := 0; round < 2; round++ {
		for id, s := range seqs {
			if got := tab.Intern(s); got != id {
				t.Fatalf("round %d: Intern(%v) = %d, want %d", round, s, got, id)
			}
		}
		if want := []int32{int32(mask), 0, 1, 2}; len(tab.slots)-1 != mask || !slices.Equal(tab.at, want) {
			t.Fatalf("round %d: ids sit at slots %v of %d, want [%d 0 1 2]", round, tab.at, len(tab.slots), mask)
		}
		for id := len(seqs) - 1; id >= 0; id-- {
			if got := tab.Intern(seqs[id]); got != id {
				t.Fatalf("round %d: re-Intern(%v) = %d, want %d", round, seqs[id], got, id)
			}
		}
		tab.Reset()
	}
}

// TestSigTableWarmCycleAllocatesNothing pins the reuse contract: once a
// table has held a window's sequences, interning them again after Reset
// allocates nothing.
func TestSigTableWarmCycleAllocatesNothing(t *testing.T) {
	seqs := sigTableWorkload()
	var tab SigTable
	for _, s := range seqs {
		tab.Intern(s)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tab.Reset()
		for _, s := range seqs {
			tab.Intern(s)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Intern/Reset cycle: %v allocs, want 0", allocs)
	}
}

// sigTableWorkload is 512 signatures shaped like a tree's processor and
// variable environments, about half of them repeats.
func sigTableWorkload() [][]uint64 {
	rng := rand.New(rand.NewSource(9))
	seqs := make([][]uint64, 512)
	for i := range seqs {
		seqs[i] = make([]uint64, 2+2*rng.Intn(3))
		for k := range seqs[i] {
			seqs[i][k] = uint64(rng.Intn(16))
		}
	}
	return seqs
}

// BenchmarkSigTable/warm is one Reset plus 512 Interns into a warm
// table: the refinement kernels' steady state, which must report 0
// allocs/op (scripts/benchgate.sh enforces it).
func BenchmarkSigTable(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		seqs := sigTableWorkload()
		var tab SigTable
		for _, s := range seqs {
			tab.Intern(s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab.Reset()
			for _, s := range seqs {
				tab.Intern(s)
			}
		}
	})
}

// Tokens returns the interned token sequence for id. The returned slice
// aliases the table's backing storage and is valid until the next Reset.
func (t *SigTable) Tokens(id int) []uint64 {
	sp := t.spans[id]
	return t.toks[sp[0]:sp[1]]
}
