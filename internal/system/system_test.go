package system

import (
	"errors"
	"math/rand"
	"testing"
)

func TestBuildersValidate(t *testing.T) {
	ring7, err := Ring(7)
	if err != nil {
		t.Fatalf("Ring(7): %v", err)
	}
	dp5, err := Dining(5)
	if err != nil {
		t.Fatalf("Dining(5): %v", err)
	}
	dp6, err := DiningFlipped(6)
	if err != nil {
		t.Fatalf("DiningFlipped(6): %v", err)
	}
	star4, err := Star(4)
	if err != nil {
		t.Fatalf("Star(4): %v", err)
	}
	tests := []struct {
		name string
		sys  *System
	}{
		{"fig1", Fig1()},
		{"fig2", Fig2()},
		{"fig3", Fig3()},
		{"ring7", ring7},
		{"dining5", dp5},
		{"diningFlipped6", dp6},
		{"star4", star4},
		{"qOverS", QOverSWitness()},
		{"lOverQ", LOverQWitness()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.sys.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
			if !tt.sys.Connected() {
				t.Error("builder system should be connected")
			}
		})
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := Ring(0); err == nil {
		t.Error("Ring(0) should fail")
	}
	if _, err := Dining(1); err == nil {
		t.Error("Dining(1) should fail")
	}
	if _, err := DiningFlipped(5); err == nil {
		t.Error("DiningFlipped(5) (odd) should fail")
	}
	if _, err := DiningFlipped(2); err == nil {
		t.Error("DiningFlipped(2) should fail")
	}
	if _, err := Star(0); err == nil {
		t.Error("Star(0) should fail")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*System)
		wantErr error
	}{
		{"no procs", func(s *System) { s.ProcIDs = nil; s.Nbr = nil; s.ProcInit = nil }, ErrNoProcessors},
		{"no names", func(s *System) { s.Names = nil }, ErrNoNames},
		{"dup name", func(s *System) { s.Names = []Name{"left", "left"} }, ErrDupName},
		{"bad neighbor", func(s *System) { s.Nbr[0][0] = 99 }, ErrBadNeighbor},
		{"row too short", func(s *System) { s.Nbr[0] = s.Nbr[0][:1] }, ErrShape},
		{"init mismatch", func(s *System) { s.ProcInit = s.ProcInit[:1] }, ErrShape},
		{"orphan var", func(s *System) {
			// Point every edge that used v0 at v1 instead.
			for p := range s.Nbr {
				for j := range s.Nbr[p] {
					if s.Nbr[p][j] == 0 {
						s.Nbr[p][j] = 1
					}
				}
			}
		}, ErrOrphanVar},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := Ring(4)
			if err != nil {
				t.Fatal(err)
			}
			tt.mutate(s)
			if err := s.Validate(); !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestNNbr(t *testing.T) {
	s := Fig2()
	v, err := s.NNbr(2, "n")
	if err != nil {
		t.Fatal(err)
	}
	if s.VarIDs[v] != "v2" {
		t.Errorf("p3's n-neighbor = %s, want v2", s.VarIDs[v])
	}
	if _, err := s.NNbr(0, "zzz"); !errors.Is(err, ErrUnknownName) {
		t.Errorf("unknown name error = %v", err)
	}
	if _, err := s.NNbr(17, "n"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node error = %v", err)
	}
}

func TestVarNeighborsFig2(t *testing.T) {
	s := Fig2()
	vn := s.VarNeighbors()
	if len(vn[0]) != 2 { // v1: p1, p2 under name n
		t.Errorf("v1 neighbors = %v, want 2", vn[0])
	}
	if len(vn[1]) != 1 { // v2: p3
		t.Errorf("v2 neighbors = %v, want 1", vn[1])
	}
	if len(vn[2]) != 3 { // v3: all under m
		t.Errorf("v3 neighbors = %v, want 3", vn[2])
	}
	for _, e := range vn[2] {
		if s.Names[e.NameIdx] != "m" {
			t.Errorf("v3 edge uses name %s, want m", s.Names[e.NameIdx])
		}
	}
}

func TestConnected(t *testing.T) {
	s := Fig1()
	if !s.Connected() {
		t.Error("Fig1 should be connected")
	}
	u, err := Union(s, Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if u.Connected() {
		t.Error("union of two systems should be disconnected")
	}
}

func TestUnionPreservesStructure(t *testing.T) {
	a := Fig2()
	b := Fig2()
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Validate(); err != nil {
		t.Fatalf("union invalid: %v", err)
	}
	if u.NumProcs() != 6 || u.NumVars() != 6 {
		t.Errorf("union size = (%d,%d), want (6,6)", u.NumProcs(), u.NumVars())
	}
	// The b-half's edges must point at b-half variables.
	for p := 3; p < 6; p++ {
		for _, v := range u.Nbr[p] {
			if v < 3 {
				t.Errorf("processor %d edge crosses into a-half variable %d", p, v)
			}
		}
	}
}

func TestUnionNameMismatch(t *testing.T) {
	a := Fig1()
	b := Fig2()
	if _, err := Union(a, b); !errors.Is(err, ErrShape) {
		t.Errorf("union with different NAMES = %v, want ErrShape", err)
	}
}

func TestUnionAll(t *testing.T) {
	u, err := UnionAll([]*System{Fig1(), Fig1(), Fig1()})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumProcs() != 6 {
		t.Errorf("NumProcs = %d, want 6", u.NumProcs())
	}
	if _, err := UnionAll(nil); err == nil {
		t.Error("empty UnionAll should fail")
	}
}

func TestInducedFig3(t *testing.T) {
	s := Fig3()
	sub, procMap, err := Induced(s, []int{0, 1}) // {p, q}
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("induced invalid: %v", err)
	}
	if sub.NumProcs() != 2 {
		t.Fatalf("induced |P| = %d, want 2", sub.NumProcs())
	}
	// z dropped: u loses z's b-edge, w loses z's a-edge.
	vn := sub.VarNeighbors()
	for v := range vn {
		if len(vn[v]) == 0 {
			t.Errorf("induced variable %s has no edges", sub.VarIDs[v])
		}
	}
	newP, ok := procMap[0]
	if !ok {
		t.Fatal("procMap missing p")
	}
	if sub.ProcIDs[newP] != "p" {
		t.Errorf("image of p = %s", sub.ProcIDs[newP])
	}
	// In the subsystem, u has exactly one edge (p's a-edge).
	uIdx, err := sub.NNbr(procMap[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(vn[uIdx]); got != 1 {
		t.Errorf("u in subsystem has %d edges, want 1", got)
	}
}

func TestInducedErrors(t *testing.T) {
	s := Fig3()
	if _, _, err := Induced(s, nil); !errors.Is(err, ErrEmptySubsetPs) {
		t.Errorf("empty subset = %v", err)
	}
	if _, _, err := Induced(s, []int{0, 0}); err == nil {
		t.Error("duplicate subset should fail")
	}
	if _, _, err := Induced(s, []int{9}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("out of range subset = %v", err)
	}
}

func TestApplyAndAutomorphism(t *testing.T) {
	s, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	// Rotation by one is an automorphism of the ring.
	rot := Permutation{
		ProcPerm: []int{1, 2, 3, 0},
		VarPerm:  []int{1, 2, 3, 0},
	}
	ok, err := IsAutomorphism(s, rot)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("rotation should be an automorphism of Ring(4)")
	}
	// Swapping two processors without moving variables is not.
	swap := Permutation{
		ProcPerm: []int{1, 0, 2, 3},
		VarPerm:  []int{0, 1, 2, 3},
	}
	ok, err = IsAutomorphism(s, swap)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("processor swap should not be an automorphism")
	}
	// Apply produces a valid isomorphic system.
	img, err := Apply(s, rot)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Validate(); err != nil {
		t.Errorf("applied system invalid: %v", err)
	}
}

func TestAutomorphismRespectsInitialState(t *testing.T) {
	s, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	s.ProcInit[0] = "marked"
	rot := Permutation{ProcPerm: []int{1, 2, 3, 0}, VarPerm: []int{1, 2, 3, 0}}
	ok, err := IsAutomorphism(s, rot)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("rotation must not be an automorphism once a processor is marked")
	}
}

func TestApplyRejectsBadPermutations(t *testing.T) {
	s := Fig1()
	if _, err := Apply(s, Permutation{ProcPerm: []int{0}, VarPerm: []int{0}}); err == nil {
		t.Error("wrong-size permutation should fail")
	}
	if _, err := Apply(s, Permutation{ProcPerm: []int{0, 0}, VarPerm: []int{0}}); err == nil {
		t.Error("non-bijective permutation should fail")
	}
	if _, err := Apply(s, Permutation{ProcPerm: []int{0, 5}, VarPerm: []int{0}}); err == nil {
		t.Error("out-of-range permutation should fail")
	}
}

func TestRandomSystemAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		opts := RandomOpts{
			Procs:      1 + rng.Intn(6),
			Vars:       1 + rng.Intn(5),
			Names:      1 + rng.Intn(3),
			InitStates: 1 + rng.Intn(3),
		}
		s, err := RandomSystem(rng, opts)
		if err != nil {
			// Unattachable variable counts are a legal outcome when
			// edge slots < vars; verify the precondition really failed.
			if opts.Procs*opts.Names >= opts.Vars {
				t.Fatalf("RandomSystem(%+v) failed despite enough slots: %v", opts, err)
			}
			continue
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("random system %d invalid: %v\n%s", i, err, s.Describe())
		}
	}
}

func TestRandomSystemDeterministic(t *testing.T) {
	opts := RandomOpts{Procs: 5, Vars: 4, Names: 2, InitStates: 2}
	a, err := RandomSystem(rand.New(rand.NewSource(7)), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSystem(rand.New(rand.NewSource(7)), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Describe() != b.Describe() {
		t.Error("same seed should give identical systems")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := Fig2()
	c := s.Clone()
	c.Nbr[0][0] = 1
	c.ProcInit[0] = "mutated"
	if s.Nbr[0][0] == 1 || s.ProcInit[0] == "mutated" {
		t.Error("Clone shares memory with original")
	}
}

func TestStringers(t *testing.T) {
	for _, i := range []InstrSet{InstrS, InstrL, InstrQ, InstrExtL, InstrSet(99)} {
		if i.String() == "" {
			t.Errorf("empty String for %d", int(i))
		}
	}
	for _, c := range []ScheduleClass{SchedGeneral, SchedFair, SchedBoundedFair, ScheduleClass(99)} {
		if c.String() == "" {
			t.Errorf("empty String for %d", int(c))
		}
	}
	for _, k := range []Kind{KindProcessor, KindVariable, Kind(99)} {
		if k.String() == "" {
			t.Errorf("empty String for %d", int(k))
		}
	}
	if P(3).String() != "p3" || V(2).String() != "v2" {
		t.Error("node stringers wrong")
	}
}

func TestDiningFlippedSharedForks(t *testing.T) {
	s, err := DiningFlipped(6)
	if err != nil {
		t.Fatal(err)
	}
	// Claim from the paper: each philosopher's right fork is also one of
	// its neighbors' right fork (forks split into shared-right and
	// shared-left classes).
	vn := s.VarNeighbors()
	for v := range vn {
		if len(vn[v]) != 2 {
			t.Fatalf("fork %d has %d users, want 2", v, len(vn[v]))
		}
		n0 := s.Names[vn[v][0].NameIdx]
		n1 := s.Names[vn[v][1].NameIdx]
		if n0 != n1 {
			t.Errorf("fork %d used under different names %s/%s; flipped table should share names", v, n0, n1)
		}
	}
}

func TestDiningPlainForksUseBothNames(t *testing.T) {
	s, err := Dining(5)
	if err != nil {
		t.Fatal(err)
	}
	vn := s.VarNeighbors()
	for v := range vn {
		if len(vn[v]) != 2 {
			t.Fatalf("fork %d has %d users, want 2", v, len(vn[v]))
		}
		n0 := s.Names[vn[v][0].NameIdx]
		n1 := s.Names[vn[v][1].NameIdx]
		if n0 == n1 {
			t.Errorf("fork %d used twice under name %s; plain table alternates names", v, n0)
		}
	}
}

func TestTreeShape(t *testing.T) {
	if _, err := Tree(0); !errors.Is(err, ErrShape) {
		t.Fatalf("Tree(0) err = %v, want ErrShape", err)
	}
	s, err := Tree(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ProcIDs); got != 7 {
		t.Fatalf("procs = %d, want 7", got)
	}
	// Heap parents: proc 5's "up" binds var 2, proc 0 self-loops.
	if s.Nbr[5][0] != 2 || s.Nbr[0][0] != 0 {
		t.Fatalf("unexpected parents: %v", s.Nbr)
	}
	if !s.Connected() {
		t.Fatal("tree not connected")
	}
}
