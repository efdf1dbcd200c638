package intset

import (
	"sort"
	"testing"
	"testing/quick"
)

func norm(xs []uint8) []int {
	m := make(map[int]bool)
	for _, x := range xs {
		m[int(x%16)] = true
	}
	return FromMap(m)
}

func TestOf(t *testing.T) {
	got := Of(3, 1, 3, 2, 1)
	want := []int{1, 2, 3}
	if !Equal(got, want) {
		t.Errorf("Of = %v, want %v", got, want)
	}
	if len(Of()) != 0 {
		t.Error("empty Of should be empty")
	}
}

func TestBasicOps(t *testing.T) {
	a := Of(1, 2, 3)
	b := Of(2, 3, 4)
	if !Equal(Union(a, b), Of(1, 2, 3, 4)) {
		t.Errorf("Union = %v", Union(a, b))
	}
	if !Equal(Diff(a, b), Of(1)) {
		t.Errorf("Diff = %v", Diff(a, b))
	}
	if !Equal(Intersect(a, b), Of(2, 3)) {
		t.Errorf("Intersect = %v", Intersect(a, b))
	}
	if !Contains(a, 2) || Contains(a, 4) {
		t.Error("Contains wrong")
	}
	if !Subset(Of(2, 3), a) || Subset(Of(2, 5), a) || !Subset(nil, a) {
		t.Error("Subset wrong")
	}
}

func TestPropertiesAgainstMaps(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := norm(xs), norm(ys)
		u := Union(a, b)
		d := Diff(a, b)
		in := Intersect(a, b)
		if !sort.IntsAreSorted(u) || !sort.IntsAreSorted(d) || !sort.IntsAreSorted(in) {
			return false
		}
		for _, x := range u {
			if !Contains(a, x) && !Contains(b, x) {
				return false
			}
		}
		for _, x := range a {
			if !Contains(u, x) {
				return false
			}
			inB := Contains(b, x)
			if Contains(d, x) == inB {
				return false
			}
			if Contains(in, x) != inB {
				return false
			}
		}
		if !Subset(in, a) || !Subset(in, b) || !Subset(a, u) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualAndSubsetEdgeCases(t *testing.T) {
	if !Equal(nil, nil) || Equal(Of(1), nil) {
		t.Error("Equal edge cases wrong")
	}
	if !Subset(nil, nil) || Subset(Of(1), nil) {
		t.Error("Subset edge cases wrong")
	}
}

// Intersect returns the canonical intersection.
func Intersect(a, b []int) []int {
	out := make([]int, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
