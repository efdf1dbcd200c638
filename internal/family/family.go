// Package family implements the paper's families of systems (section 5):
// sets of systems sharing an instruction set, schedule class, and NAMES,
// homogeneous families (same topology, differing only in initial states),
// union-system labelings, and the relabel machinery that reduces systems
// in L to homogeneous families in Q.
//
// The key construction: executing relabel(k) — lock each neighboring
// variable, read and increment its counter — gives every processor a rank
// on each named variable. The set R of possible post-relabel states is
// the product of per-variable lock orders; {(N, state, L, F) | state ∈ R}
// is a homogeneous family, and its members' similarity labelings are the
// paper's VERSIONS. All VERSIONS share one label space here because they
// are computed on the disjoint union of the members (the paper's
// "similarity labeling for the family").
package family

import (
	"errors"
	"fmt"
	"strings"

	"simsym/internal/core"
	"simsym/internal/system"
)

// Sentinel errors.
var (
	ErrNotHomogeneous  = errors.New("family: members differ in topology")
	ErrEmpty           = errors.New("family: no members")
	ErrTooManyOutcomes = errors.New("family: relabel outcome count exceeds limit")
)

// DefaultOutcomeLimit bounds exhaustive relabel-outcome enumeration.
const DefaultOutcomeLimit = 20_000

// Family is a list of systems with identical NAMES.
type Family struct {
	Members []*system.System
}

// NewHomogeneous validates that all members share one topology (names and
// edges), differing only in initial states, and returns the family.
func NewHomogeneous(members []*system.System) (*Family, error) {
	if len(members) == 0 {
		return nil, ErrEmpty
	}
	ref := members[0]
	for i, m := range members[1:] {
		if err := sameTopology(ref, m); err != nil {
			return nil, fmt.Errorf("member %d: %w", i+1, err)
		}
	}
	return &Family{Members: members}, nil
}

func sameTopology(a, b *system.System) error {
	if len(a.Names) != len(b.Names) || a.NumProcs() != b.NumProcs() || a.NumVars() != b.NumVars() {
		return fmt.Errorf("%w: size mismatch", ErrNotHomogeneous)
	}
	for j := range a.Names {
		if a.Names[j] != b.Names[j] {
			return fmt.Errorf("%w: NAMES differ", ErrNotHomogeneous)
		}
	}
	for p := range a.Nbr {
		for j := range a.Nbr[p] {
			if a.Nbr[p][j] != b.Nbr[p][j] {
				return fmt.Errorf("%w: edge (%d,%s)", ErrNotHomogeneous, p, a.Names[j])
			}
		}
	}
	return nil
}

// MemberLabeling is one member's restriction of the family labeling; all
// MemberLabelings of one call share a label space, so labels are
// comparable across members.
type MemberLabeling struct {
	Member     int
	ProcLabels []int
	VarLabels  []int
}

// UniqueProcs returns processors uniquely labeled within this member.
func (ml *MemberLabeling) UniqueProcs() []int {
	count := make(map[int]int)
	for _, l := range ml.ProcLabels {
		count[l]++
	}
	var out []int
	for p, l := range ml.ProcLabels {
		if count[l] == 1 {
			out = append(out, p)
		}
	}
	return out
}

// EveryProcPaired reports whether every processor of the member shares
// its label with another processor of the same member.
func (ml *MemberLabeling) EveryProcPaired() bool {
	count := make(map[int]int)
	for _, l := range ml.ProcLabels {
		count[l]++
	}
	for _, l := range ml.ProcLabels {
		if count[l] < 2 {
			return false
		}
	}
	return true
}

// Labeling computes the similarity labeling of the family — the labeling
// of the disjoint union of its members (section 5) — and returns each
// member's restriction, all in one shared label space.
func (f *Family) Labeling(rule core.Rule) ([]*MemberLabeling, error) {
	if len(f.Members) == 0 {
		return nil, ErrEmpty
	}
	u, err := system.UnionAll(f.Members)
	if err != nil {
		return nil, fmt.Errorf("family: %w", err)
	}
	lab, err := core.Similarity(u, rule)
	if err != nil {
		return nil, fmt.Errorf("family: %w", err)
	}
	out := make([]*MemberLabeling, len(f.Members))
	pOff, vOff := 0, 0
	for i, m := range f.Members {
		out[i] = &MemberLabeling{
			Member:     i,
			ProcLabels: append([]int(nil), lab.ProcLabels[pOff:pOff+m.NumProcs()]...),
			VarLabels:  append([]int(nil), lab.VarLabels[vOff:vOff+m.NumVars()]...),
		}
		pOff += m.NumProcs()
		vOff += m.NumVars()
	}
	return out, nil
}

// RelabelState encodes a processor's post-relabel initial state: its
// original initial state plus, for each name in order, the count it read
// when it locked that neighbor (its rank among the variable's lockers).
// The original state is length-prefixed so one containing the separator
// bytes cannot shift the frame and collide with a different
// (state, ranks) pair. Mirrored by distlabel's relabelStateString (kept
// in sync by a cross-package test).
func RelabelState(orig string, ranks []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%s", len(orig), orig)
	for _, r := range ranks {
		fmt.Fprintf(&b, ",%d", r)
	}
	return b.String()
}

// RelabelOutcomes enumerates the set R: every assignment of lock orders
// to variables, converted into a post-relabel system. Each variable with
// d incident edges is locked d times (once per edge; a processor naming
// the same variable twice locks it once per name); its lockers receive
// ranks 0..d-1 in every possible order.
//
// The returned systems all share the topology of sys, have processor
// initial states produced by RelabelState, and variable initial states
// equal to the variable's degree (relabel leaves the counter at the
// number of lockers) — so they form a homogeneous family.
//
// Note: R is over-approximated by the full per-variable order product;
// relabel's sequential locking can correlate orders across variables in
// some networks. The over-approximation is conservative for the paper's
// constructions and exact on its examples (see DESIGN.md).
func RelabelOutcomes(sys *system.System) ([]*system.System, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("family: %w", err)
	}
	const limit = DefaultOutcomeLimit
	vn := sys.VarNeighbors()
	// Count outcomes: product of d_v! over variables.
	total := 1
	for v := range vn {
		f := factorial(len(vn[v]))
		if total > limit/max(f, 1) && f > 1 {
			return nil, fmt.Errorf("%w: limit %d", ErrTooManyOutcomes, limit)
		}
		total *= f
		if total > limit {
			return nil, fmt.Errorf("%w: %d > %d", ErrTooManyOutcomes, total, limit)
		}
	}

	// Enumerate per-variable permutations of incident edges.
	perVar := make([][][]system.Edge, len(vn))
	for v := range vn {
		perVar[v] = permutations(vn[v])
	}

	var outcomes []*system.System
	choice := make([]int, len(vn))
	for {
		outcomes = append(outcomes, buildOutcome(sys, vn, perVar, choice))
		// Advance the mixed-radix counter.
		i := 0
		for i < len(choice) {
			choice[i]++
			if choice[i] < len(perVar[i]) {
				break
			}
			choice[i] = 0
			i++
		}
		if i == len(choice) {
			break
		}
	}
	return outcomes, nil
}

func buildOutcome(sys *system.System, vn [][]system.Edge, perVar [][][]system.Edge, choice []int) *system.System {
	out := sys.Clone()
	// ranks[p][nameIdx] = rank of processor p's (p,name) edge on its
	// variable, under the chosen orders.
	ranks := make([][]int, sys.NumProcs())
	for p := range ranks {
		ranks[p] = make([]int, len(sys.Names))
	}
	for v := range vn {
		order := perVar[v][choice[v]]
		for rank, e := range order {
			ranks[e.Proc][e.NameIdx] = rank
		}
	}
	for p := range ranks {
		out.ProcInit[p] = RelabelState(sys.ProcInit[p], ranks[p])
	}
	for v := range vn {
		out.VarInit[v] = fmt.Sprintf("%d", len(vn[v]))
	}
	return out
}

// Versions computes the paper's VERSIONS for a system in L: the
// similarity labelings (in Q, shared label space) of every relabel
// outcome, deduplicated up to identical label vectors.
func Versions(sys *system.System) ([]*MemberLabeling, error) {
	outcomes, err := RelabelOutcomes(sys)
	if err != nil {
		return nil, err
	}
	fam, err := NewHomogeneous(outcomes)
	if err != nil {
		return nil, err
	}
	labs, err := fam.Labeling(core.RuleQ)
	if err != nil {
		return nil, err
	}
	// Dedup identical versions (identical proc label vectors).
	seen := make(map[string]bool)
	var out []*MemberLabeling
	for _, ml := range labs {
		key := fmt.Sprint(ml.ProcLabels)
		if !seen[key] {
			seen[key] = true
			out = append(out, ml)
		}
	}
	return out, nil
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

func permutations(edges []system.Edge) [][]system.Edge {
	if len(edges) == 0 {
		return [][]system.Edge{{}}
	}
	var out [][]system.Edge
	var rec func(cur []system.Edge, rest []system.Edge)
	rec = func(cur []system.Edge, rest []system.Edge) {
		if len(rest) == 0 {
			out = append(out, append([]system.Edge(nil), cur...))
			return
		}
		for i := range rest {
			next := make([]system.Edge, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, edges)
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
