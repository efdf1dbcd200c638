// Package intset provides small sorted-slice integer sets. Similarity
// labels are dense ints; the distributed labeling algorithms pass label
// sets through shared variables, so the representation must be canonical
// (sorted, deduplicated) for state fingerprints to compare correctly.
package intset

import "sort"

// Of returns the canonical set of the given elements.
func Of(xs ...int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return dedup(out)
}

// FromMap returns the canonical set of m's keys.
func FromMap(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// Contains reports whether sorted set s contains x.
func Contains(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// Equal reports whether two canonical sets are equal.
func Equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Subset reports whether every element of a is in b (both canonical).
func Subset(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
	}
	return true
}

// Union returns the canonical union of two canonical sets.
func Union(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Diff returns the canonical difference a \ b.
func Diff(a, b []int) []int {
	out := make([]int, 0, len(a))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

func dedup(sorted []int) []int {
	out := sorted[:0]
	for i, x := range sorted {
		if i == 0 || x != sorted[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
