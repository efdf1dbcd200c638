package partition

import (
	"slices"

	"simsym/internal/canon"
)

// SigTable interns uint64 signature token sequences as small dense
// integer ids: the first distinct sequence gets id 0, the next id 1, and
// so on. Dyn interns every node's signature and FixpointHopcroft the tag
// multisets of a class's touched nodes, then split classes by comparing
// small ints instead of strings — the constant-time signature comparison
// Hopcroft's bound [H71] and the paper's Theorem 5 assume.
//
// The table is open-addressed with linear probing over flat hash and
// slot arrays (the layout of the model checker's state index), indexed
// by the low bits of canon.HashTokens. Collisions are resolved by
// comparing the token sequences themselves, so ids are collision-free by
// construction. Interned sequences are copied into a shared backing
// array; callers may reuse their token buffer between Intern calls.
// Once warm, Intern and Reset allocate nothing.
//
// The zero value is ready to use. A SigTable is not goroutine-safe.
type SigTable struct {
	hashes []uint64 // slot -> hash of the sequence it holds
	slots  []int32  // slot -> id+1, 0 when empty
	at     []int32  // id -> its slot, so Reset clears only used slots
	toks   []uint64
	spans  [][2]int // id -> its tokens' span in toks
}

// Len returns the number of distinct sequences interned since the last
// Reset.
func (t *SigTable) Len() int { return len(t.spans) }

// Intern returns the dense id of sig, assigning the next free id on
// first sight. sig is copied; the caller keeps ownership of the buffer.
func (t *SigTable) Intern(sig []uint64) int {
	if 2*(len(t.spans)+1) > len(t.slots) {
		t.grow()
	}
	h := canon.HashTokens(sig)
	mask := len(t.slots) - 1
	sl := int(h) & mask
	for ; t.slots[sl] != 0; sl = (sl + 1) & mask {
		if t.hashes[sl] != h {
			continue
		}
		id := int(t.slots[sl]) - 1
		if sp := t.spans[id]; slices.Equal(t.toks[sp[0]:sp[1]], sig) {
			return id
		}
	}
	id := len(t.spans)
	start := len(t.toks)
	t.toks = append(t.toks, sig...)
	t.spans = append(t.spans, [2]int{start, len(t.toks)})
	t.hashes[sl], t.slots[sl] = h, int32(id+1)
	t.at = append(t.at, int32(sl))
	return id
}

// grow doubles the slot arrays (16 at first), keeping the load at most
// one half, and re-seats every id in id order.
func (t *SigTable) grow() {
	oldH, oldS := t.hashes, t.slots
	size := max(16, 2*len(oldS))
	t.hashes = make([]uint64, size)
	t.slots = make([]int32, size)
	mask := size - 1
	for id, old := range t.at {
		h := oldH[old]
		sl := int(h) & mask
		for t.slots[sl] != 0 {
			sl = (sl + 1) & mask
		}
		t.hashes[sl], t.slots[sl] = h, oldS[old]
		t.at[id] = int32(sl)
	}
}

// Reset forgets every interned sequence but keeps the allocated storage.
// It clears only the slots the current ids occupy, so it costs O(Len()),
// not O(capacity), and per-class reuse stays cheap. Ids from different
// Reset windows are not comparable.
func (t *SigTable) Reset() {
	for _, sl := range t.at {
		t.slots[sl] = 0
	}
	t.at = t.at[:0]
	t.toks = t.toks[:0]
	t.spans = t.spans[:0]
}

// SortTokens sorts a token slice ascending in place. Helper for
// TokenStructure implementors that encode label multisets.
func SortTokens(toks []uint64) { slices.Sort(toks) }

// SortTokenPairs sorts consecutive (a, b) token pairs of toks
// lexicographically in place, without allocating. len(toks) must be
// even. Helper for TokenStructure implementors that encode multisets of
// tagged labels, e.g. the paper's (name, label) environment pairs.
func SortTokenPairs(toks []uint64) {
	m := len(toks) / 2
	less := func(i, j int) bool {
		if toks[2*i] != toks[2*j] {
			return toks[2*i] < toks[2*j]
		}
		return toks[2*i+1] < toks[2*j+1]
	}
	swap := func(i, j int) {
		toks[2*i], toks[2*j] = toks[2*j], toks[2*i]
		toks[2*i+1], toks[2*j+1] = toks[2*j+1], toks[2*i+1]
	}
	siftDown := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			if child+1 < end && less(child, child+1) {
				child++
			}
			if !less(root, child) {
				return
			}
			swap(root, child)
			root = child
		}
	}
	for root := m/2 - 1; root >= 0; root-- {
		siftDown(root, m)
	}
	for end := m - 1; end > 0; end-- {
		swap(0, end)
		siftDown(0, end)
	}
}
