package simsym

import (
	"errors"
	"fmt"

	"simsym/internal/adversary"
	"simsym/internal/autgrp"
	"simsym/internal/core"
	"simsym/internal/csp"
	"simsym/internal/dining"
	"simsym/internal/family"
	"simsym/internal/machine"
	"simsym/internal/mimic"
	"simsym/internal/msgpass"
	"simsym/internal/partition"
	"simsym/internal/randomized"
	"simsym/internal/sched"
	"simsym/internal/selection"
	"simsym/internal/sysdsl"
	"simsym/internal/system"
	"simsym/internal/trace"
)

// ErrBadArgs is wrapped by every facade function that rejects its
// arguments (non-positive sizes, nil systems or programs, out-of-range
// indices). Test with errors.Is(err, simsym.ErrBadArgs).
var ErrBadArgs = errors.New("simsym: invalid argument")

// Core model types.
type (
	// System is a bipartite network of processors and shared variables
	// with a naming function and initial states (paper section 2).
	System = system.System
	// Name is a processor-local variable name.
	Name = system.Name
	// InstrSet identifies an instruction set (S, L, Q, extended L).
	InstrSet = system.InstrSet
	// ScheduleClass identifies a schedule class.
	ScheduleClass = system.ScheduleClass
	// Permutation is a candidate (auto)morphism.
	Permutation = system.Permutation

	// Labeling is a (similarity) labeling of a system's nodes.
	Labeling = core.Labeling
	// Rule selects the environment rule for refinement.
	Rule = core.Rule

	// DynSystem is a mutable system whose similarity labeling is
	// maintained incrementally under churn: processors and variables
	// join, leave, crash, and rewire, and each event relabels only the
	// classes it invalidates. Build one with NewDynSystem.
	DynSystem = core.DynSystem
	// Mutation is one topology edit applied through DynSystem.Apply;
	// a batch of mutations is one churn event.
	Mutation = core.Mutation
	// MutOp selects a Mutation's operation (OpAddProc, OpCrash, ...).
	MutOp = core.MutOp
	// UpdateStats profiles one incremental relabel event: slots
	// touched, classes split and merged, settle rounds.
	UpdateStats = partition.UpdateStats
	// Churn is a seeded, replayable stream of topology mutation events
	// over a DynSystem. Build one with NewChurn.
	Churn = adversary.Churn
	// ChurnOpts bounds a churn stream's population.
	ChurnOpts = adversary.ChurnOpts

	// Decision is a selection-problem verdict.
	Decision = selection.Decision

	// Machine executes programs over systems.
	Machine = machine.Machine
	// Program is an executable instruction list.
	Program = machine.Program
	// ProgramBuilder assembles programs.
	ProgramBuilder = machine.Builder
	// Sym is an interned local-variable slot index.
	Sym = machine.Sym
	// Regs is a slot-addressed view of a processor's local store, passed
	// to Compute and JumpIf closures.
	Regs = machine.Regs

	// Orbits holds automorphism orbits (graph-theoretic symmetry).
	Orbits = autgrp.Orbits

	// MsgNetwork is a directed message-passing processor graph.
	MsgNetwork = msgpass.Network

	// DiningReport is the outcome of a dining-philosophers check.
	DiningReport = dining.Report
)

// Instruction sets and schedule classes (paper section 2).
const (
	InstrS    = system.InstrS
	InstrL    = system.InstrL
	InstrQ    = system.InstrQ
	InstrExtL = system.InstrExtL

	SchedGeneral     = system.SchedGeneral
	SchedFair        = system.SchedFair
	SchedBoundedFair = system.SchedBoundedFair

	// RuleQ counts variable neighbors per label (instruction set Q);
	// RuleSetS records only label sets (instruction set S).
	RuleQ    = core.RuleQ
	RuleSetS = core.RuleSetS
)

// Topology mutation operations (DynSystem.Apply vocabulary).
const (
	OpAddProc     = core.OpAddProc
	OpAddVar      = core.OpAddVar
	OpRemoveProc  = core.OpRemoveProc
	OpRemoveVar   = core.OpRemoveVar
	OpRewire      = core.OpRewire
	OpCrash       = core.OpCrash
	OpRestart     = core.OpRestart
	OpSetProcInit = core.OpSetProcInit
	OpSetVarInit  = core.OpSetVarInit
)

// Example systems (no parameters to validate, re-exported directly).
var (
	// Fig1 builds the paper's Figure 1 (two processors, one variable).
	Fig1 = system.Fig1
	// Fig2 builds the paper's Figure 2 ("Complicated Alibis").
	Fig2 = system.Fig2
	// Fig3 builds the reconstruction of Figure 3 (fair-S mimicry).
	Fig3 = system.Fig3
)

// Ring builds an anonymous ring of n processors.
func Ring(n int) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: Ring(n=%d) needs n >= 1", ErrBadArgs, n)
	}
	return system.Ring(n)
}

// Tree builds a rooted binary tree of n processors: each owns a
// variable (name "own") and shares its parent's variable (name "up").
func Tree(n int) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: Tree(n=%d) needs n >= 1", ErrBadArgs, n)
	}
	return system.Tree(n)
}

// Dining builds the Figure 4 dining table for n philosophers.
func Dining(n int) (*System, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: Dining(n=%d) needs n >= 2", ErrBadArgs, n)
	}
	return system.Dining(n)
}

// DiningFlipped builds the Figure 5 alternating table (n even).
func DiningFlipped(n int) (*System, error) {
	if n < 4 || n%2 != 0 {
		return nil, fmt.Errorf("%w: DiningFlipped(n=%d) needs even n >= 4", ErrBadArgs, n)
	}
	return system.DiningFlipped(n)
}

// Star builds n processors sharing one hub variable.
func Star(n int) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: Star(n=%d) needs n >= 1", ErrBadArgs, n)
	}
	return system.Star(n)
}

// NewMachine initializes a VM for sys under an instruction set.
func NewMachine(sys *System, instr InstrSet, prog *Program) (*Machine, error) {
	if sys == nil || prog == nil {
		return nil, fmt.Errorf("%w: NewMachine: nil system or program", ErrBadArgs)
	}
	return machine.New(sys, instr, prog)
}

// NewProgram returns an empty program builder.
func NewProgram() *ProgramBuilder { return machine.NewBuilder() }

// ComputeOrbits enumerates the automorphism group and node orbits
// (graph-theoretic symmetry, Theorems 10–11).
func ComputeOrbits(sys *System) (*Orbits, error) {
	if sys == nil {
		return nil, fmt.Errorf("%w: ComputeOrbits: nil system", ErrBadArgs)
	}
	return autgrp.Compute(sys, autgrp.Options{})
}

// MimicsNobody returns the processors that mimic no other processor in a
// fair system in S — the safe self-selectors (section 6).
func MimicsNobody(sys *System) ([]int, error) {
	if sys == nil {
		return nil, fmt.Errorf("%w: MimicsNobody: nil system", ErrBadArgs)
	}
	rel, err := mimic.Compute(sys)
	if err != nil {
		return nil, err
	}
	return rel.MimicsNobody(), nil
}

// HomogeneousFamily groups systems sharing one topology, differing only
// in initial states (section 5).
func HomogeneousFamily(members []*System) (*family.Family, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: HomogeneousFamily: no members", ErrBadArgs)
	}
	return family.NewHomogeneous(members)
}

// DecideFamily solves the selection problem for a homogeneous family in
// Q (Theorem 7): solvable iff an ELITE label set covers each member
// exactly once.
func DecideFamily(fam *family.Family) (*selection.FamilyDecision, error) {
	if fam == nil {
		return nil, fmt.Errorf("%w: DecideFamily: nil family", ErrBadArgs)
	}
	return selection.DecideFamilyQ(fam)
}

// BuildSelectFamily generates the uniform Algorithm 3 program electing
// the ELITE holder on every member of a solvable family.
func BuildSelectFamily(fam *family.Family) (*Program, *selection.FamilyDecision, error) {
	if fam == nil {
		return nil, nil, fmt.Errorf("%w: BuildSelectFamily: nil family", ErrBadArgs)
	}
	return selection.SelectFamilyQ(fam)
}

// RelabelVersions enumerates the paper's VERSIONS for a system in L: the
// similarity labelings (shared label space) of every relabel outcome.
func RelabelVersions(sys *System) ([][]int, error) {
	if sys == nil {
		return nil, fmt.Errorf("%w: RelabelVersions: nil system", ErrBadArgs)
	}
	versions, err := family.Versions(sys, family.RelabelOptions{})
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(versions))
	for i, v := range versions {
		out[i] = append([]int(nil), v.ProcLabels...)
	}
	return out, nil
}

// RoundRobin returns the canonical fair schedule prefix.
func RoundRobin(n, rounds int) ([]int, error) {
	if n < 1 || rounds < 0 {
		return nil, fmt.Errorf("%w: RoundRobin(n=%d, rounds=%d) needs n >= 1, rounds >= 0", ErrBadArgs, n, rounds)
	}
	return sched.RoundRobin(n, rounds)
}

// WitnessSimilarity runs prog under the class-sorted round-robin schedule
// and checks that same-labeled nodes stay in the same state at every
// round boundary (the Theorem 4 witness). It returns true when no
// divergence was observed.
func WitnessSimilarity(sys *System, instr InstrSet, prog *Program, lab *Labeling, rounds int) (bool, error) {
	if sys == nil || prog == nil || lab == nil {
		return false, fmt.Errorf("%w: WitnessSimilarity: nil system, program, or labeling", ErrBadArgs)
	}
	if rounds < 1 {
		return false, fmt.Errorf("%w: WitnessSimilarity: rounds %d < 1", ErrBadArgs, rounds)
	}
	rep, err := trace.Witness(sys, instr, prog, lab, rounds)
	if err != nil {
		return false, err
	}
	return rep.Synced(), nil
}

// DiningProgram returns the uniform fork-grabbing philosopher program.
func DiningProgram(first, second Name, meals int) (*Program, error) {
	if first == "" || second == "" || meals < 1 {
		return nil, fmt.Errorf("%w: DiningProgram(%q, %q, meals=%d) needs non-empty names, meals >= 1", ErrBadArgs, first, second, meals)
	}
	return dining.Program(first, second, meals)
}

// OrientedDiningTable builds the Chandy–Misra table: the acyclic fork
// orientation lives in the initial state (section 8's encapsulated
// asymmetry).
func OrientedDiningTable(n int, towardRight []bool) (*System, error) {
	if n < 2 || len(towardRight) != n {
		return nil, fmt.Errorf("%w: OrientedDiningTable(n=%d, len(towardRight)=%d) needs n >= 2 and one orientation per fork", ErrBadArgs, n, len(towardRight))
	}
	return dining.OrientedTable(n, towardRight)
}

// ChandyMisraProgram returns the uniform dirty-fork philosopher program.
func ChandyMisraProgram(meals int) (*Program, error) {
	if meals < 1 {
		return nil, fmt.Errorf("%w: ChandyMisraProgram(meals=%d) needs meals >= 1", ErrBadArgs, meals)
	}
	return dining.ChandyMisraProgram(meals)
}

// ItaiRodehSweep runs the randomized anonymous-ring election repeatedly.
func ItaiRodehSweep(seed int64, n, idSpace, maxPhases, runs int) (*randomized.ElectionStats, error) {
	if n < 1 || idSpace < 1 || maxPhases < 1 || runs < 1 {
		return nil, fmt.Errorf("%w: ItaiRodehSweep(n=%d, idSpace=%d, maxPhases=%d, runs=%d) needs all >= 1", ErrBadArgs, n, idSpace, maxPhases, runs)
	}
	return randomized.ElectionSweep(seed, n, idSpace, maxPhases, runs)
}

// ParseSystem reads the sysdsl text format (or a generator directive).
func ParseSystem(src string) (*System, error) { return sysdsl.Parse(src) }

// SerializeSystem renders a system in the sysdsl text format.
func SerializeSystem(sys *System) string { return sysdsl.Serialize(sys) }

// ExportDOT renders the network in Graphviz DOT format.
func ExportDOT(sys *System, title string) string { return sysdsl.DOT(sys, title) }

// MsgSimilarity computes the similarity labeling of a message-passing
// network (section 6): counting environments for the Q-like regime, set
// environments for the overwrite regime.
func MsgSimilarity(n *MsgNetwork, counting bool) ([]int, error) {
	if n == nil {
		return nil, fmt.Errorf("%w: MsgSimilarity: nil network", ErrBadArgs)
	}
	return msgpass.Similarity(n, counting)
}

// CSPNet is a synchronous (CSP) process network of two-endpoint channels.
type CSPNet = csp.Net

// CSPRing builds the CSP ring network.
func CSPRing(n int) (*CSPNet, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: CSPRing(n=%d) needs n >= 1", ErrBadArgs, n)
	}
	return csp.RingNet(n)
}

// DecideExtendedCSP solves the selection problem under CSP extended with
// output guards, via the channel-shaped L translation (section 6).
func DecideExtendedCSP(n *CSPNet) (*Decision, error) {
	if n == nil {
		return nil, fmt.Errorf("%w: DecideExtendedCSP: nil network", ErrBadArgs)
	}
	return csp.DecideExtended(n)
}
