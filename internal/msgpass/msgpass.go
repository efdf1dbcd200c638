// Package msgpass carries the paper's similarity theory to message
// passing (section 6).
//
// In an asynchronous message-passing system the environment of a
// processor depends only on the processors that can send messages to it:
// similarity refinement runs over the in-neighbor structure of a directed
// processor graph. The paper's claims implemented here:
//
//   - Asynchronous bidirectional systems behave like Q: environments
//     count in-neighbor labels (multisets), and a distributed algorithm
//     (flooding) lets every processor learn its label.
//   - A unidirectional, fair, not strongly-connected system in which no
//     processor knows its in-degree suffers the fair-S problems: the
//     mimicry relation over in-closed subnetworks governs selection.
//   - Extended CSP relates to asynchronous bidirectional message passing
//     as L relates to Q: a supersimilarity labeling transfers to
//     extended CSP iff no two neighboring processors share a label
//     (synchronous rendezvous plays the role of the lock race).
package msgpass

import (
	"errors"
	"fmt"
	"sort"

	"simsym/internal/partition"
)

// Sentinel errors.
var (
	ErrEmpty    = errors.New("msgpass: empty network")
	ErrBadEdge  = errors.New("msgpass: edge endpoint out of range")
	ErrTooLarge = errors.New("msgpass: network too large for subset enumeration")
)

// Network is a directed processor graph: Out[p] lists the processors p
// can send messages to.
type Network struct {
	ProcIDs []string
	Init    []string
	Out     [][]int
}

// NumProcs returns |P|.
func (n *Network) NumProcs() int { return len(n.ProcIDs) }

// Validate checks shape and edge ranges.
func (n *Network) Validate() error {
	if n.NumProcs() == 0 {
		return ErrEmpty
	}
	if len(n.Init) != n.NumProcs() || len(n.Out) != n.NumProcs() {
		return fmt.Errorf("%w: shape mismatch", ErrBadEdge)
	}
	for p, outs := range n.Out {
		for _, q := range outs {
			if q < 0 || q >= n.NumProcs() {
				return fmt.Errorf("%w: %d -> %d", ErrBadEdge, p, q)
			}
		}
	}
	return nil
}

// In returns the in-neighbor lists.
func (n *Network) In() [][]int {
	in := make([][]int, n.NumProcs())
	for p, outs := range n.Out {
		for _, q := range outs {
			in[q] = append(in[q], p)
		}
	}
	for p := range in {
		sort.Ints(in[p])
	}
	return in
}

// netStructure adapts a Network to partition.TokenStructure. A
// processor's out-edges are its in-neighbors, all tagged 0, so
// partition's signature is the multiset (counting) or set of their
// labels.
type netStructure struct {
	net      *Network
	in       [][]int
	zeros    []int // one 0 tag per in-edge of the largest in-degree
	counting bool
}

func newNetStructure(n *Network, counting bool) *netStructure {
	s := &netStructure{net: n, in: n.In(), counting: counting}
	deg := 0
	for _, in := range s.in {
		deg = max(deg, len(in))
	}
	s.zeros = make([]int, deg)
	return s
}

func (s *netStructure) Len() int                        { return s.net.NumProcs() }
func (s *netStructure) InitKey(i int) string            { return s.net.Init[i] }
func (s *netStructure) OutEdges(i int) (to, tags []int) { return s.in[i], s.zeros[:len(s.in[i])] }
func (s *netStructure) Counting() bool                  { return s.counting }

func (s *netStructure) Dependents(i int) []int { return s.net.Out[i] }

// Similarity computes the similarity labeling of the network. With
// counting=true, environments are in-neighbor label multisets (the
// bidirectional / known-degree regime, analogous to Q); with
// counting=false they are label sets (the overwrite regime, analogous
// to S).
func Similarity(n *Network, counting bool) ([]int, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	p, err := partition.FixpointWorklist(newNetStructure(n, counting), nil)
	if err != nil {
		return nil, fmt.Errorf("msgpass: %w", err)
	}
	return p.Canonical(), nil
}

// UniqueLabels returns the processors with a unique label.
func UniqueLabels(labels []int) []int {
	count := make(map[int]int)
	for _, l := range labels {
		count[l]++
	}
	var out []int
	for p, l := range labels {
		if count[l] == 1 {
			out = append(out, p)
		}
	}
	return out
}

// NoAdjacentSameLabel checks the extended-CSP transfer condition (the
// message-passing analog of Theorem 8): a supersimilarity labeling of the
// asynchronous bidirectional system transfers to extended CSP iff no two
// neighboring processors share a label — a rendezvous between same-label
// neighbors would break the tie, just as a lock race does in L.
func NoAdjacentSameLabel(n *Network, labels []int) (bool, error) {
	if err := n.Validate(); err != nil {
		return false, err
	}
	if len(labels) != n.NumProcs() {
		return false, fmt.Errorf("%w: labeling size", ErrBadEdge)
	}
	for p, outs := range n.Out {
		for _, q := range outs {
			if p != q && labels[p] == labels[q] {
				return false, nil
			}
		}
	}
	return true, nil
}

// MaxMimicProcs bounds mimicry subset enumeration (2^n silence variants).
const MaxMimicProcs = 10

// Mimics computes the appears-as relation for fair message-passing
// systems where no processor knows its in-degree: a processor whose
// in-neighbors have been silent so far is indistinguishable from one
// with no such neighbors at all.
//
// rel[x][y] reports that y can appear as x: there is a silenced set D
// (y ∉ D) such that y in the subnetwork Σ\D is similar — across the
// disjoint union of all such variants, under set environments — to x in
// the FULL network. The x side is the full network because fairness lets
// x wait for its complete in-context before deciding; the y side gets
// silence variants because a finite prefix can hide any of y's context.
// x can safely self-select iff no other processor can appear as it.
//
// For strongly-connected networks the relation collapses to plain
// similarity (a silenced variant visibly truncates every in-history),
// matching the paper's remark that such systems give results like those
// of Q; non-strongly-connected ones exhibit the source confusion that
// makes them behave like fair systems in S.
func Mimics(n *Network) ([][]bool, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	np := n.NumProcs()
	if np > MaxMimicProcs {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, np, MaxMimicProcs)
	}
	// Build the disjoint union of Σ\D for every D ⊂ P, tracking the
	// global index of each surviving (variant, processor).
	union := &Network{}
	// variantIdx[mask][p] = global index of p in variant Σ\mask, or -1.
	variantIdx := make([][]int, 1<<np)
	for mask := 0; mask < 1<<np; mask++ {
		variantIdx[mask] = make([]int, np)
		var procs []int
		for p := 0; p < np; p++ {
			variantIdx[mask][p] = -1
			if mask&(1<<p) == 0 {
				procs = append(procs, p)
			}
		}
		if len(procs) == 0 {
			continue
		}
		sub, idx := induced(n, procs)
		off := union.NumProcs()
		union.ProcIDs = append(union.ProcIDs, sub.ProcIDs...)
		union.Init = append(union.Init, sub.Init...)
		for _, outs := range sub.Out {
			row := make([]int, len(outs))
			for i, q := range outs {
				row[i] = q + off
			}
			union.Out = append(union.Out, row)
		}
		for p, i := range idx {
			variantIdx[mask][p] = i + off
		}
	}
	labels, err := Similarity(union, false)
	if err != nil {
		return nil, err
	}
	// classOf[y] = set of labels y attains across its silence variants;
	// classFull[x] = x's label in the full network (mask 0).
	classOf := make([]map[int]bool, np)
	for p := 0; p < np; p++ {
		classOf[p] = make(map[int]bool)
	}
	for mask := range variantIdx {
		for p := 0; p < np; p++ {
			if g := variantIdx[mask][p]; g >= 0 {
				classOf[p][labels[g]] = true
			}
		}
	}
	classFull := make([]int, np)
	for p := 0; p < np; p++ {
		classFull[p] = labels[variantIdx[0][p]]
	}
	rel := make([][]bool, np)
	for x := range rel {
		rel[x] = make([]bool, np)
		for y := range rel[x] {
			if x == y {
				continue
			}
			rel[x][y] = classOf[y][classFull[x]]
		}
	}
	return rel, nil
}

// MimicsNobody returns the processors no other processor can appear as —
// the safe self-selectors under merely-fair schedules.
func MimicsNobody(rel [][]bool) []int {
	var out []int
	for x := range rel {
		free := true
		for y := range rel[x] {
			if x != y && rel[x][y] {
				free = false
			}
		}
		if free {
			out = append(out, x)
		}
	}
	return out
}

func induced(n *Network, procs []int) (*Network, map[int]int) {
	idx := make(map[int]int, len(procs))
	for i, p := range procs {
		idx[p] = i
	}
	sub := &Network{
		ProcIDs: make([]string, len(procs)),
		Init:    make([]string, len(procs)),
		Out:     make([][]int, len(procs)),
	}
	for i, p := range procs {
		sub.ProcIDs[i] = n.ProcIDs[p]
		sub.Init[i] = n.Init[p]
		for _, q := range n.Out[p] {
			if j, ok := idx[q]; ok {
				sub.Out[i] = append(sub.Out[i], j)
			}
		}
	}
	return sub, idx
}

// --- builders ---

// DirectedRing returns the unidirectional ring p0 -> p1 -> ... -> p0.
func DirectedRing(n int) (*Network, error) {
	if n < 1 {
		return nil, ErrEmpty
	}
	net := &Network{
		ProcIDs: make([]string, n),
		Init:    make([]string, n),
		Out:     make([][]int, n),
	}
	for i := 0; i < n; i++ {
		net.ProcIDs[i] = fmt.Sprintf("p%d", i)
		net.Init[i] = "0"
		net.Out[i] = []int{(i + 1) % n}
	}
	return net, nil
}

// BiRing returns the bidirectional ring.
func BiRing(n int) (*Network, error) {
	net, err := DirectedRing(n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		net.Out[i] = append(net.Out[i], (i-1+n)%n)
		sort.Ints(net.Out[i])
	}
	return net, nil
}

// Chain returns the path p0 -> p1 -> ... -> p(n-1) (not strongly
// connected for n >= 2): the canonical unknown-in-degree trouble case.
func Chain(n int) (*Network, error) {
	if n < 1 {
		return nil, ErrEmpty
	}
	net := &Network{
		ProcIDs: make([]string, n),
		Init:    make([]string, n),
		Out:     make([][]int, n),
	}
	for i := 0; i < n; i++ {
		net.ProcIDs[i] = fmt.Sprintf("p%d", i)
		net.Init[i] = "0"
		if i+1 < n {
			net.Out[i] = []int{i + 1}
		}
	}
	return net, nil
}
