// Package autgrp computes graph-theoretic symmetry: the automorphisms and
// node orbits of a system's labeled bipartite network.
//
// The paper's footnote 1 defines symmetry via label-preserving
// isomorphisms; two nodes are symmetric iff some automorphism maps one to
// the other. Theorem 10 proves that symmetric nodes are similar in Q, so
// automorphism orbits always refine the similarity labeling — which this
// package exploits: candidate images during backtracking are restricted to
// the target's similarity class, making enumeration cheap on the paper's
// examples even though automorphism search is hard in general.
//
// Because every processor has exactly one n-neighbor per name, a processor
// permutation forces the variable mapping (v = n-nbr(p) must map to
// n-nbr(σ(p))). The search therefore backtracks over processors only and
// derives the variable bijection, pruning on conflicts and initial states.
package autgrp

import (
	"errors"
	"fmt"

	"simsym/internal/core"
	"simsym/internal/system"
)

// Sentinel errors.
var (
	ErrTooMany = errors.New("autgrp: automorphism limit exceeded")
)

// DefaultLimit bounds the number of automorphisms enumerated; past it
// Automorphisms returns ErrTooMany.
const DefaultLimit = 1 << 20

// Automorphisms enumerates every automorphism of sys (including the
// identity), in deterministic order.
func Automorphisms(sys *system.System) ([]system.Permutation, error) {
	return automorphisms(sys, DefaultLimit)
}

// automorphisms is Automorphisms with the enumeration bound given.
func automorphisms(sys *system.System, limit int) ([]system.Permutation, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("autgrp: %w", err)
	}
	// Similarity classes bound the orbits (Theorem 10): a processor can
	// only map within its similarity class.
	lab, err := core.Similarity(sys, core.RuleQ)
	if err != nil {
		return nil, fmt.Errorf("autgrp: similarity pruning: %w", err)
	}

	np, nv := sys.NumProcs(), sys.NumVars()
	procImg := make([]int, np)
	varImg := make([]int, nv)
	procUsed := make([]bool, np)
	varUsed := make([]bool, nv)
	for i := range procImg {
		procImg[i] = -1
	}
	for i := range varImg {
		varImg[i] = -1
	}

	var result []system.Permutation
	var assign func(p int) error
	assign = func(p int) error {
		if p == np {
			// Variable map must be a complete bijection; every variable
			// has at least one edge (Validate guarantees no orphans), so
			// completeness is automatic once all processors are mapped.
			perm := system.Permutation{
				ProcPerm: append([]int(nil), procImg...),
				VarPerm:  append([]int(nil), varImg...),
			}
			if len(result) >= limit {
				return ErrTooMany
			}
			result = append(result, perm)
			return nil
		}
		for cand := 0; cand < np; cand++ {
			if procUsed[cand] {
				continue
			}
			if lab.ProcLabels[p] != lab.ProcLabels[cand] {
				continue // orbits refine similarity
			}
			if sys.ProcInit[p] != sys.ProcInit[cand] {
				continue
			}
			// Propagate the forced variable mappings.
			var touched []int
			ok := true
			for j, v := range sys.Nbr[p] {
				w := sys.Nbr[cand][j]
				switch {
				case varImg[v] == w:
					// already consistent
				case varImg[v] == -1 && !varUsed[w]:
					if sys.VarInit[v] != sys.VarInit[w] {
						ok = false
					} else {
						varImg[v] = w
						varUsed[w] = true
						touched = append(touched, v)
					}
				default:
					ok = false
				}
				if !ok {
					break
				}
			}
			if ok {
				procImg[p] = cand
				procUsed[cand] = true
				if err := assign(p + 1); err != nil {
					return err
				}
				procImg[p] = -1
				procUsed[cand] = false
			}
			for _, v := range touched {
				varUsed[varImg[v]] = false
				varImg[v] = -1
			}
		}
		return nil
	}
	if err := assign(0); err != nil {
		return nil, err
	}
	// Defensive re-check: every enumerated permutation must really be an
	// automorphism (edge propagation covers edges from the processor
	// side, which is all edges, but the check is cheap and guards
	// against future refactors).
	for _, perm := range result {
		ok, err := system.IsAutomorphism(sys, perm)
		if err != nil {
			return nil, fmt.Errorf("autgrp: verifying: %w", err)
		}
		if !ok {
			return nil, fmt.Errorf("autgrp: internal error: enumerated non-automorphism %v", perm)
		}
	}
	return result, nil
}

// Orbits describes the symmetry classes of a system.
type Orbits struct {
	// ProcOrbit[p] is the orbit id of processor p; orbit ids are dense
	// and deterministic (ordered by smallest member).
	ProcOrbit []int
	// VarOrbit[v] is the orbit id of variable v.
	VarOrbit []int
	// GroupOrder is the number of automorphisms (|Aut|).
	GroupOrder int
}

// Compute enumerates the automorphism group and returns node orbits.
func Compute(sys *system.System) (*Orbits, error) {
	auts, err := Automorphisms(sys)
	if err != nil {
		return nil, err
	}
	np, nv := sys.NumProcs(), sys.NumVars()
	procParent := identity(np)
	varParent := identity(nv)
	for _, a := range auts {
		for p, img := range a.ProcPerm {
			union(procParent, p, img)
		}
		for v, img := range a.VarPerm {
			union(varParent, v, img)
		}
	}
	return &Orbits{
		ProcOrbit:  canonicalize(procParent),
		VarOrbit:   canonicalize(varParent),
		GroupOrder: len(auts),
	}, nil
}

// ProcClasses returns the processor orbits as sorted slices ordered by
// smallest member.
func (o *Orbits) ProcClasses() [][]int { return classesOf(o.ProcOrbit) }

// VarClasses returns the variable orbits as sorted slices ordered by
// smallest member.
func (o *Orbits) VarClasses() [][]int { return classesOf(o.VarOrbit) }

// Symmetric reports whether processors p and q lie in the same orbit.
func (o *Orbits) Symmetric(p, q int) bool { return o.ProcOrbit[p] == o.ProcOrbit[q] }

// RefinesSimilarity reports whether every orbit is contained in one
// similarity class of lab — the content of Theorem 10 (symmetric nodes in
// a system in Q are similar).
func (o *Orbits) RefinesSimilarity(lab *core.Labeling) bool {
	if len(o.ProcOrbit) != len(lab.ProcLabels) || len(o.VarOrbit) != len(lab.VarLabels) {
		return false
	}
	procSim := make(map[int]int)
	for p, orb := range o.ProcOrbit {
		if sim, ok := procSim[orb]; ok {
			if sim != lab.ProcLabels[p] {
				return false
			}
		} else {
			procSim[orb] = lab.ProcLabels[p]
		}
	}
	varSim := make(map[int]int)
	for v, orb := range o.VarOrbit {
		if sim, ok := varSim[orb]; ok {
			if sim != lab.VarLabels[v] {
				return false
			}
		} else {
			varSim[orb] = lab.VarLabels[v]
		}
	}
	return true
}

// IsDistributed reports whether no variable is accessed by every
// processor — the paper's definition of a distributed system (section 7:
// "It is distributed because no variable is accessed by all processors").
func IsDistributed(sys *system.System) bool {
	vn := sys.VarNeighbors()
	for v := range vn {
		procs := make(map[int]bool)
		for _, e := range vn[v] {
			procs[e.Proc] = true
		}
		if len(procs) == sys.NumProcs() {
			return false
		}
	}
	return true
}

// Theorem11Hypothesis reports whether Theorem 11 applies to sys with
// respect to orbit class C (given as the orbit id of any member): the
// system is distributed, symmetric (C is a full orbit by construction),
// and |C| is prime. When it applies, every processor in C is similar in L
// — verified elsewhere by checking the orbit labeling against Theorem 8.
func Theorem11Hypothesis(sys *system.System, o *Orbits, orbitID int) bool {
	if !IsDistributed(sys) {
		return false
	}
	size := 0
	for _, id := range o.ProcOrbit {
		if id == orbitID {
			size++
		}
	}
	return isPrime(size)
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func find(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

func union(parent []int, a, b int) {
	ra, rb := find(parent, a), find(parent, b)
	if ra != rb {
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
}

func canonicalize(parent []int) []int {
	out := make([]int, len(parent))
	next := 0
	remap := make(map[int]int)
	for i := range parent {
		root := find(parent, i)
		id, ok := remap[root]
		if !ok {
			id = next
			remap[root] = id
			next++
		}
		out[i] = id
	}
	return out
}

func classesOf(orbit []int) [][]int {
	byID := make(map[int][]int)
	for i, id := range orbit {
		byID[id] = append(byID[id], i)
	}
	out := make([][]int, len(byID))
	for id, members := range byID {
		out[id] = members
	}
	return out
}
