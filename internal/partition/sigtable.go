package partition

import (
	"slices"

	"simsym/internal/canon"
)

// SigTable interns uint64 signature token sequences as small dense
// integer ids: the first distinct sequence gets id 0, the next id 1, and
// so on. FixpointWorklist and Dyn intern every node's signature and
// FixpointHopcroft every touched node's tag multiset, then split classes
// by comparing small ints instead of strings — the constant-time
// signature comparison Hopcroft's bound [H71] and the paper's Theorem 5
// assume.
//
// Buckets are keyed on canon.HashTokens and collisions are resolved by
// comparing the token sequences themselves, so ids are collision-free by
// construction. Interned sequences are copied into a shared backing
// array; callers may reuse their token buffer between Intern calls.
//
// The zero value is ready to use. A SigTable is not goroutine-safe.
type SigTable struct {
	buckets map[uint64][]int32
	toks    []uint64
	spans   [][2]int
}

// Len returns the number of distinct sequences interned since the last
// Reset.
func (t *SigTable) Len() int { return len(t.spans) }

// Intern returns the dense id of sig, assigning the next free id on
// first sight. sig is copied; the caller keeps ownership of the buffer.
func (t *SigTable) Intern(sig []uint64) int {
	if t.buckets == nil {
		t.buckets = make(map[uint64][]int32)
	}
	h := canon.HashTokens(sig)
	for _, id := range t.buckets[h] {
		sp := t.spans[id]
		if slices.Equal(t.toks[sp[0]:sp[1]], sig) {
			return int(id)
		}
	}
	id := len(t.spans)
	start := len(t.toks)
	t.toks = append(t.toks, sig...)
	t.spans = append(t.spans, [2]int{start, len(t.toks)})
	t.buckets[h] = append(t.buckets[h], int32(id))
	return id
}

// Tokens returns the interned token sequence for id. The returned slice
// aliases the table's backing storage and is valid until the next Reset.
func (t *SigTable) Tokens(id int) []uint64 {
	sp := t.spans[id]
	return t.toks[sp[0]:sp[1]]
}

// Reset forgets every interned sequence but keeps the allocated storage,
// so per-class reuse stays allocation-free once the table has warmed up.
// Ids from different Reset windows are not comparable.
func (t *SigTable) Reset() {
	clear(t.buckets)
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
