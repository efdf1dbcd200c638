// Package partition implements partition refinement, the engine behind the
// paper's Algorithm 1 ("Compute Similarity Labeling Θ").
//
// The paper computes similarity labelings by refining a trivial
// subsimilarity labeling until nodes with the same label have the same
// environment, citing Hopcroft's set-partition algorithm [H71] for an
// O(n log n) bound. This package provides the partition data structure
// and two refinement algorithms, one per signature kind, plus the naive
// oracle:
//
//   - FixpointHopcroft refines counting signatures with Hopcroft's
//     smaller-half splitter rule (the paper's Q rule, Theorem 5).
//   - Dyn refines set signatures (the paper's S rule, for which the
//     smaller-half rule is unsound) with a dirty-slot worklist, and keeps
//     the coarsest stable partition of a mutating structure up to date,
//     refining its class quotient with the algorithm that fits the
//     signature kind. FixpointWorklist is a Dyn build over a static
//     structure.
//   - FixpointNaive recomputes every string signature every round. It is
//     the direct transcription of Algorithm 1 and serves as the oracle
//     the other drivers are tested against.
//
// All drivers produce the same relation; tests cross-check them against
// FixpointNaive and benchmarks compare them (the DESIGN.md ablation).
package partition

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Structure describes a refinable structure with string signatures: a
// set of nodes, an initial coloring, a per-node signature that may read
// current labels, and the dependency graph saying whose signatures are
// affected when a node's label changes. It is the input of the naive
// oracle.
type Structure interface {
	// Len returns the number of nodes, indexed 0..Len()-1.
	Len() int
	// InitKey returns the initial-coloring key of node i (nodes with
	// equal keys start in the same class).
	InitKey(i int) string
	// Signature returns a deterministic encoding of node i's environment
	// under the current labeling. Nodes in a stable partition must have
	// equal signatures iff they should share a class.
	Signature(i int, label func(int) int) string
	// Dependents returns the nodes whose Signature may change when node
	// i's label changes. It may contain duplicates and i itself.
	Dependents(i int) []int
}

// TokenStructure is the input of FixpointWorklist and Dyn: Structure
// with the string Signature replaced by an allocation-free token
// encoder. AppendSignature appends node i's environment under the
// current labeling to buf as uint64 tokens and returns the extended
// slice; two nodes of the same class must produce equal token sequences
// iff they should share a class. Dyn interns the sequences through a
// SigTable and splits classes by comparing small ints.
// Implementations must not retain buf.
type TokenStructure interface {
	// Len returns the number of nodes, indexed 0..Len()-1.
	Len() int
	// InitKey returns the initial-coloring key of node i.
	InitKey(i int) string
	// AppendSignature appends node i's environment tokens to buf.
	AppendSignature(buf []uint64, i int, label func(int) int) []uint64
	// Dependents returns the nodes whose signature may change when node
	// i's label changes. It may contain duplicates and i itself.
	Dependents(i int) []int
}

// ErrEmptyStructure is returned when refining a structure with no nodes.
var ErrEmptyStructure = errors.New("partition: empty structure")

// RoundHook observes refinement progress: round is the 1-based settle
// round (FixpointWorklist: 1..R without gaps) or Hopcroft splitter
// iteration (quiet iterations skipped), classes the partition size after
// it, and splits the number of new classes carved during it, so the
// splits sum to the final class count minus the initial one. Hooks run
// synchronously on the refining goroutine — they are the observability
// tap the core package threads its event recorder through. A nil hook
// means unobserved and costs one branch per round.
type RoundHook func(round, classes, splits int)

// Partition assigns each node a class label in 0..NumClasses()-1.
// Class identifiers are deterministic for a given refinement run but
// carry no meaning across runs; use Canonical for stable comparison.
type Partition struct {
	label   []int
	members [][]int
}

// newPartition builds the initial partition of n nodes from their
// InitKey, with class ids assigned in sorted key order for determinism.
func newPartition(n int, initKey func(int) string) (*Partition, error) {
	if n == 0 {
		return nil, ErrEmptyStructure
	}
	byKey := make(map[string][]int)
	for i := 0; i < n; i++ {
		k := initKey(i)
		byKey[k] = append(byKey[k], i)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p := &Partition{label: make([]int, n)}
	for _, k := range keys {
		id := len(p.members)
		for _, i := range byKey[k] {
			p.label[i] = id
		}
		p.members = append(p.members, byKey[k])
	}
	return p, nil
}

// Label returns the class of node i.
func (p *Partition) Label(i int) int { return p.label[i] }

// Labels returns a copy of the full label vector.
func (p *Partition) Labels() []int { return append([]int(nil), p.label...) }

// NumClasses returns the number of classes.
func (p *Partition) NumClasses() int { return len(p.members) }

// Members returns a copy of the member list of class c, sorted ascending.
func (p *Partition) Members(c int) []int {
	out := append([]int(nil), p.members[c]...)
	sort.Ints(out)
	return out
}

// Classes returns all classes as sorted member lists, ordered by class id.
func (p *Partition) Classes() [][]int {
	out := make([][]int, len(p.members))
	for c := range p.members {
		out[c] = p.Members(c)
	}
	return out
}

// Canonical returns the label vector renumbered so that class ids appear
// in order of first occurrence. Two partitions of the same node set induce
// the same equivalence relation iff their Canonical vectors are equal.
func (p *Partition) Canonical() []int {
	next := 0
	remap := make(map[int]int, len(p.members))
	out := make([]int, len(p.label))
	for i, l := range p.label {
		r, ok := remap[l]
		if !ok {
			r = next
			remap[l] = r
			next++
		}
		out[i] = r
	}
	return out
}

// SameRelation reports whether p and q induce the same equivalence
// relation on the same node set.
func SameRelation(p, q *Partition) bool {
	if len(p.label) != len(q.label) {
		return false
	}
	a, b := p.Canonical(), q.Canonical()
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// splitClass regroups the members of class c by their signature, keeping
// the first (lowest-node) group under the old id and allocating new ids
// for the rest in sorted signature order. It returns the nodes whose
// label changed.
func (p *Partition) splitClass(c int, sig func(i int) string) []int {
	if len(p.members[c]) <= 1 {
		return nil
	}
	bySig := make(map[string][]int)
	for _, i := range p.members[c] {
		s := sig(i)
		bySig[s] = append(bySig[s], i)
	}
	if len(bySig) == 1 {
		return nil
	}
	sigs := make([]string, 0, len(bySig))
	for s := range bySig {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	// Keep the group containing the smallest member under the old id so
	// splitting is deterministic regardless of signature strings.
	minNode := p.members[c][0]
	for _, i := range p.members[c] {
		if i < minNode {
			minNode = i
		}
	}
	keep := ""
	for s, m := range bySig {
		for _, i := range m {
			if i == minNode {
				keep = s
			}
		}
	}
	var changed []int
	p.members[c] = bySig[keep]
	for _, s := range sigs {
		if s == keep {
			continue
		}
		id := len(p.members)
		p.members = append(p.members, bySig[s])
		for _, i := range bySig[s] {
			p.label[i] = id
			changed = append(changed, i)
		}
	}
	return changed
}

// sigEncoder interns the token signatures of s through a SigTable,
// reusing one token buffer across calls. Ids are dense per reset window
// in first-appearance order; ids from different windows are not
// comparable.
type sigEncoder struct {
	s   TokenStructure
	tab SigTable
	buf []uint64
}

func (e *sigEncoder) sigID(i int, label func(int) int) int {
	e.buf = e.s.AppendSignature(e.buf[:0], i, label)
	return e.tab.Intern(e.buf)
}

// FixpointNaive refines the initial partition of s until stable,
// recomputing every node's signature each round. It mirrors the paper's
// Algorithm 1 exactly: "do nodes x and y have the same label but different
// environments → relabel".
func FixpointNaive(s Structure) (*Partition, error) {
	p, err := newPartition(s.Len(), s.InitKey)
	if err != nil {
		return nil, err
	}
	lbl := func(i int) int { return p.label[i] }
	for {
		sigCache := make([]string, s.Len())
		for i := 0; i < s.Len(); i++ {
			sigCache[i] = s.Signature(i, lbl)
		}
		changedAny := false
		// Snapshot class ids: splits append new classes which are
		// singleton-grouped already this round.
		numBefore := len(p.members)
		for c := 0; c < numBefore; c++ {
			if ch := p.splitClass(c, func(i int) string { return sigCache[i] }); len(ch) > 0 {
				changedAny = true
			}
		}
		if !changedAny {
			return p, nil
		}
	}
}

// FixpointWorklist refines the initial partition of s until stable with
// Dyn's dirty-slot worklist: it builds a Dyn over s, every node alive,
// and returns the settled classes. Each round re-encodes only the nodes
// whose dependencies changed, and signatures are interned into one
// SigTable, so splitting compares small ints. hook, when non-nil, is
// called once per settle round.
func FixpointWorklist(s TokenStructure, hook RoundHook) (*Partition, error) {
	d, err := newDyn(allAlive{s}, hook)
	if err != nil {
		return nil, err
	}
	return d.partition(), nil
}

// String renders the partition as sorted class lists, for debugging and
// golden tests. It builds the output incrementally so rendering a
// 65k-node partition stays linear.
func (p *Partition) String() string {
	var b strings.Builder
	for c, m := range p.Classes() {
		if c > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v", m)
	}
	return b.String()
}
