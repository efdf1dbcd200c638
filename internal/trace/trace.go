// Package trace checks the paper's similarity claims empirically: it runs
// a program on the machine under a class-sorted round-robin schedule and
// verifies that same-labeled nodes have the same state at every round
// boundary — the schedule constructed in Theorem 4's proof.
//
// A schedule "causes nodes to behave similarly" when it gives them the
// same state at the same time infinitely often, for any program. The
// class-sorted round-robin delivers a stronger, checkable version: equal
// state at every round boundary. Violations come with the round number
// and the offending node pair, which makes the package a sharp test bed
// for labelings that merely claim to be supersimilar.
package trace

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"simsym/internal/core"
	"simsym/internal/machine"
	"simsym/internal/system"
)

// Sentinel errors.
var (
	ErrShape = errors.New("trace: labeling does not match system")
)

// Violation records the first point where two same-labeled nodes diverged.
type Violation struct {
	Round int
	Kind  system.Kind
	A, B  int // node indices within their kind
}

// String implements fmt.Stringer.
func (v *Violation) String() string {
	return fmt.Sprintf("round %d: %v %d and %d diverged", v.Round, v.Kind, v.A, v.B)
}

// Report is the result of a witness run.
type Report struct {
	Rounds    int
	Steps     int
	Violation *Violation // nil when all rounds stayed in sync
}

// Synced reports whether no divergence was observed.
func (r *Report) Synced() bool { return r.Violation == nil }

// ClassSortedRound returns one round of the witness schedule: every
// processor once, ordered by (label, index). Same-labeled processors run
// consecutively, which is what makes the Theorem 4 argument go through
// for variables shared across classes.
func ClassSortedRound(lab *core.Labeling) []int {
	order := make([]int, len(lab.ProcLabels))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := lab.ProcLabels[order[a]], lab.ProcLabels[order[b]]
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	return order
}

// Witness runs prog on sys under instr for the given number of rounds of
// the class-sorted round-robin schedule, checking after every round that
// all same-labeled processors and all same-labeled variables have equal
// state fingerprints.
func Witness(sys *system.System, instr system.InstrSet, prog *machine.Program, lab *core.Labeling, rounds int) (*Report, error) {
	if len(lab.ProcLabels) != sys.NumProcs() || len(lab.VarLabels) != sys.NumVars() {
		return nil, ErrShape
	}
	m, err := machine.New(sys, instr, prog)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	round := ClassSortedRound(lab)
	rep := &Report{}
	ck := newSyncChecker(sys, lab)
	for r := 1; r <= rounds; r++ {
		for _, p := range round {
			if err := m.Step(p); err != nil {
				return nil, fmt.Errorf("trace: round %d: %w", r, err)
			}
			rep.Steps++
		}
		rep.Rounds = r
		if viol := ck.check(m); viol != nil {
			viol.Round = r
			rep.Violation = viol
			return rep, nil
		}
		if m.AllHalted() {
			break
		}
	}
	return rep, nil
}

// syncChecker compares same-labeled nodes on binary fingerprint keys,
// reusing one pair of buffers across all rounds of a witness run instead
// of materializing a fingerprint string per node per round.
type syncChecker struct {
	lab        *core.Labeling
	procRep    map[int]int // label -> representative node
	varRep     map[int]int
	bufA, bufB []byte
}

func newSyncChecker(sys *system.System, lab *core.Labeling) *syncChecker {
	ck := &syncChecker{lab: lab, procRep: make(map[int]int), varRep: make(map[int]int)}
	for p := 0; p < sys.NumProcs(); p++ {
		if _, ok := ck.procRep[lab.ProcLabels[p]]; !ok {
			ck.procRep[lab.ProcLabels[p]] = p
		}
	}
	for v := 0; v < sys.NumVars(); v++ {
		if _, ok := ck.varRep[lab.VarLabels[v]]; !ok {
			ck.varRep[lab.VarLabels[v]] = v
		}
	}
	return ck
}

func (ck *syncChecker) check(m *machine.Machine) *Violation {
	sys := m.System()
	for p := 0; p < sys.NumProcs(); p++ {
		rep := ck.procRep[ck.lab.ProcLabels[p]]
		if rep == p {
			continue
		}
		ck.bufA = m.AppendProcFingerprint(ck.bufA[:0], rep)
		ck.bufB = m.AppendProcFingerprint(ck.bufB[:0], p)
		if !bytes.Equal(ck.bufA, ck.bufB) {
			return &Violation{Kind: system.KindProcessor, A: rep, B: p}
		}
	}
	for v := 0; v < sys.NumVars(); v++ {
		rep := ck.varRep[ck.lab.VarLabels[v]]
		if rep == v {
			continue
		}
		ck.bufA = m.AppendVarFingerprint(ck.bufA[:0], rep)
		ck.bufB = m.AppendVarFingerprint(ck.bufB[:0], v)
		if !bytes.Equal(ck.bufA, ck.bufB) {
			return &Violation{Kind: system.KindVariable, A: rep, B: v}
		}
	}
	return nil
}
