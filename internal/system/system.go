// Package system implements the concurrent-system model of Johnson &
// Schneider, "Symmetry and Similarity in Distributed Systems" (PODC 1985),
// section 2.
//
// A system Σ = (N, state0, I, SP) consists of a connected bipartite network
// N of processors and shared variables, an initial state, an instruction
// set I, and a schedule class SP. Edges are labeled by a naming function:
// each processor has exactly one n-neighbor for every local name n in
// NAMES, so "the variable p calls n" is always well defined (the paper's
// n-nbr function).
package system

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// InstrSet identifies one of the paper's instruction sets.
type InstrSet int

// Instruction sets from the paper (section 2) plus the extended-locking
// variant discussed in section 6.
const (
	// InstrS is the simple instruction set: read and write on shared
	// variables plus arbitrary local instructions.
	InstrS InstrSet = iota + 1
	// InstrL is S plus lock/unlock on a per-variable lock bit.
	InstrL
	// InstrQ is the quasi-locking instruction set: peek and post on
	// variables that hold one subvalue per posting processor.
	InstrQ
	// InstrExtL is L extended with atomic multi-variable locking
	// (section 6, "Extended Locking").
	InstrExtL
)

// String implements fmt.Stringer.
func (i InstrSet) String() string {
	switch i {
	case InstrS:
		return "S"
	case InstrL:
		return "L"
	case InstrQ:
		return "Q"
	case InstrExtL:
		return "ExtL"
	default:
		return fmt.Sprintf("InstrSet(%d)", int(i))
	}
}

// ScheduleClass identifies one of the paper's schedule classes.
type ScheduleClass int

// Schedule classes from the paper (section 2).
const (
	// SchedGeneral places no restriction on schedules.
	SchedGeneral ScheduleClass = iota + 1
	// SchedFair requires every processor to appear infinitely often.
	SchedFair
	// SchedBoundedFair requires every processor to appear at least once
	// in any window of k consecutive steps, for some fixed k.
	SchedBoundedFair
)

// String implements fmt.Stringer.
func (s ScheduleClass) String() string {
	switch s {
	case SchedGeneral:
		return "general"
	case SchedFair:
		return "fair"
	case SchedBoundedFair:
		return "bounded-fair"
	default:
		return fmt.Sprintf("ScheduleClass(%d)", int(s))
	}
}

// ParseInstrSet parses the command-line and session spelling of an
// instruction set: "s", "l" or "q".
func ParseInstrSet(s string) (InstrSet, error) {
	switch s {
	case "s":
		return InstrS, nil
	case "l":
		return InstrL, nil
	case "q":
		return InstrQ, nil
	default:
		return 0, fmt.Errorf("unknown instruction set %q (want s, l, or q)", s)
	}
}

// ParseScheduleClass parses the command-line and session spelling of a
// schedule class: "general", "fair" or "bounded".
func ParseScheduleClass(s string) (ScheduleClass, error) {
	switch s {
	case "general":
		return SchedGeneral, nil
	case "fair":
		return SchedFair, nil
	case "bounded":
		return SchedBoundedFair, nil
	default:
		return 0, fmt.Errorf("unknown schedule class %q (want general, fair, or bounded)", s)
	}
}

// Name is a local name a processor gives to one of its shared variables
// (an element of the paper's NAMES set).
type Name string

// Kind distinguishes the two node sorts of the bipartite network.
type Kind int

// Node kinds.
const (
	KindProcessor Kind = iota + 1
	KindVariable
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindProcessor:
		return "processor"
	case KindVariable:
		return "variable"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node identifies a node of the network: a processor index or a variable
// index, tagged by kind.
type Node struct {
	Kind  Kind
	Index int
}

// P returns the processor node with index i.
func P(i int) Node { return Node{Kind: KindProcessor, Index: i} }

// V returns the variable node with index i.
func V(i int) Node { return Node{Kind: KindVariable, Index: i} }

// String implements fmt.Stringer.
func (n Node) String() string {
	switch n.Kind {
	case KindProcessor:
		return fmt.Sprintf("p%d", n.Index)
	case KindVariable:
		return fmt.Sprintf("v%d", n.Index)
	default:
		return fmt.Sprintf("?%d", n.Index)
	}
}

// System is the network N together with the initial state. The instruction
// set and schedule class are carried separately because the paper
// routinely asks "what changes if the same network runs under a different
// model?".
//
// Processors and variables are dense indices. Nbr[p][j] gives the variable
// that processor p calls Names[j]; it is the paper's n-nbr function.
type System struct {
	// Names is the set NAMES in a fixed order. Every processor has
	// exactly one neighbor per name.
	Names []Name

	// ProcIDs holds display identifiers for processors (e.g. "p1").
	ProcIDs []string
	// VarIDs holds display identifiers for variables (e.g. "fork3").
	VarIDs []string

	// Nbr[p][j] is the index of the variable that processor p calls
	// Names[j]. len(Nbr) == len(ProcIDs) and len(Nbr[p]) == len(Names).
	Nbr [][]int

	// ProcInit[p] is the initial state of processor p, as an opaque
	// value. Processors with equal initial states are indistinguishable
	// at time zero.
	ProcInit []string
	// VarInit[v] is the initial state of variable v.
	VarInit []string
}

// Sentinel errors returned by Validate.
var (
	ErrNoProcessors  = errors.New("system has no processors")
	ErrNoNames       = errors.New("system has no names")
	ErrShape         = errors.New("system shape is inconsistent")
	ErrBadNeighbor   = errors.New("neighbor index out of range")
	ErrOrphanVar     = errors.New("variable has no neighbors")
	ErrDupName       = errors.New("duplicate name in NAMES")
	ErrNotConnected  = errors.New("network is not connected")
	ErrUnknownName   = errors.New("unknown name")
	ErrUnknownNode   = errors.New("unknown node")
	ErrEmptySubsetPs = errors.New("induced subsystem needs at least one processor")
	// ErrVarInUse reports removing a variable a processor still binds.
	ErrVarInUse = errors.New("variable still referenced by a processor")
)

// NumProcs returns |P|.
func (s *System) NumProcs() int { return len(s.ProcIDs) }

// NumVars returns |V|.
func (s *System) NumVars() int { return len(s.VarIDs) }

// NumNodes returns |P ∪ V|.
func (s *System) NumNodes() int { return len(s.ProcIDs) + len(s.VarIDs) }

// NameIndex returns the position of n in Names, or an error if n is not a
// member of NAMES.
func (s *System) NameIndex(n Name) (int, error) {
	for i, m := range s.Names {
		if m == n {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownName, n)
}

// NNbr returns the variable index that processor p calls name n (the
// paper's n-nbr(p)).
func (s *System) NNbr(p int, n Name) (int, error) {
	j, err := s.NameIndex(n)
	if err != nil {
		return 0, err
	}
	if p < 0 || p >= s.NumProcs() {
		return 0, fmt.Errorf("%w: processor %d", ErrUnknownNode, p)
	}
	return s.Nbr[p][j], nil
}

// Edge records one labeled edge of the bipartite network, from the
// variable side: processor Proc calls the variable by Names[NameIdx].
type Edge struct {
	Proc    int
	NameIdx int
}

// VarNeighbors returns, for each variable index, the list of (processor,
// name-index) edges incident on it, in deterministic order.
func (s *System) VarNeighbors() [][]Edge {
	out := make([][]Edge, s.NumVars())
	for p := range s.Nbr {
		for j, v := range s.Nbr[p] {
			out[v] = append(out[v], Edge{Proc: p, NameIdx: j})
		}
	}
	for v := range out {
		sort.Slice(out[v], func(a, b int) bool {
			if out[v][a].Proc != out[v][b].Proc {
				return out[v][a].Proc < out[v][b].Proc
			}
			return out[v][a].NameIdx < out[v][b].NameIdx
		})
	}
	return out
}

// Validate checks the structural invariants of the model: nonempty P and
// NAMES, exactly one neighbor per (processor, name), valid indices, no
// duplicate names, no orphan variables, and matching state-vector lengths.
// Connectivity is checked separately (Connected) because the paper makes
// essential use of disconnected union systems.
func (s *System) Validate() error {
	if s.NumProcs() == 0 {
		return ErrNoProcessors
	}
	if len(s.Names) == 0 {
		return ErrNoNames
	}
	seen := make(map[Name]bool, len(s.Names))
	for _, n := range s.Names {
		if seen[n] {
			return fmt.Errorf("%w: %q", ErrDupName, n)
		}
		seen[n] = true
	}
	if len(s.Nbr) != s.NumProcs() {
		return fmt.Errorf("%w: len(Nbr)=%d, |P|=%d", ErrShape, len(s.Nbr), s.NumProcs())
	}
	if len(s.ProcInit) != s.NumProcs() {
		return fmt.Errorf("%w: len(ProcInit)=%d, |P|=%d", ErrShape, len(s.ProcInit), s.NumProcs())
	}
	if len(s.VarInit) != s.NumVars() {
		return fmt.Errorf("%w: len(VarInit)=%d, |V|=%d", ErrShape, len(s.VarInit), s.NumVars())
	}
	touched := make([]bool, s.NumVars())
	for p, row := range s.Nbr {
		if len(row) != len(s.Names) {
			return fmt.Errorf("%w: processor %d has %d neighbors, want one per name (%d)",
				ErrShape, p, len(row), len(s.Names))
		}
		for j, v := range row {
			if v < 0 || v >= s.NumVars() {
				return fmt.Errorf("%w: processor %d name %q -> %d (|V|=%d)",
					ErrBadNeighbor, p, s.Names[j], v, s.NumVars())
			}
			touched[v] = true
		}
	}
	for v, ok := range touched {
		if !ok {
			return fmt.Errorf("%w: %s", ErrOrphanVar, s.VarIDs[v])
		}
	}
	return nil
}

// Connected reports whether the bipartite network is connected.
func (s *System) Connected() bool {
	if s.NumNodes() == 0 {
		return true
	}
	// BFS over the node space: processors 0..|P|-1, then variables.
	np := s.NumProcs()
	total := s.NumNodes()
	visited := make([]bool, total)
	queue := []int{0}
	visited[0] = true
	count := 1
	vn := s.VarNeighbors()
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur < np {
			for _, v := range s.Nbr[cur] {
				if !visited[np+v] {
					visited[np+v] = true
					count++
					queue = append(queue, np+v)
				}
			}
		} else {
			for _, e := range vn[cur-np] {
				if !visited[e.Proc] {
					visited[e.Proc] = true
					count++
					queue = append(queue, e.Proc)
				}
			}
		}
	}
	return count == total
}

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := &System{
		Names:    append([]Name(nil), s.Names...),
		ProcIDs:  append([]string(nil), s.ProcIDs...),
		VarIDs:   append([]string(nil), s.VarIDs...),
		Nbr:      make([][]int, len(s.Nbr)),
		ProcInit: append([]string(nil), s.ProcInit...),
		VarInit:  append([]string(nil), s.VarInit...),
	}
	for p := range s.Nbr {
		c.Nbr[p] = append([]int(nil), s.Nbr[p]...)
	}
	return c
}

// String renders a compact human-readable description.
func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "system{|P|=%d |V|=%d names=%v}", s.NumProcs(), s.NumVars(), s.Names)
	return b.String()
}

// Describe renders a full multi-line description, useful in CLIs and
// golden tests.
func (s *System) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "names:")
	for _, n := range s.Names {
		fmt.Fprintf(&b, " %s", n)
	}
	b.WriteByte('\n')
	for p := range s.ProcIDs {
		fmt.Fprintf(&b, "proc %s init=%q:", s.ProcIDs[p], s.ProcInit[p])
		for j, v := range s.Nbr[p] {
			fmt.Fprintf(&b, " %s->%s", s.Names[j], s.VarIDs[v])
		}
		b.WriteByte('\n')
	}
	for v := range s.VarIDs {
		fmt.Fprintf(&b, "var %s init=%q\n", s.VarIDs[v], s.VarInit[v])
	}
	return b.String()
}
