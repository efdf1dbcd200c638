package distlabel

import (
	"fmt"

	"simsym/internal/core"
	"simsym/internal/family"
	"simsym/internal/machine"
	"simsym/internal/system"
)

// Algorithm 3 (section 5): find a processor's label within a homogeneous
// family in Q, where members differ only in initial states and the union
// is disconnected (so Theorem 6's connectivity escape hatch is
// unavailable). Phase 1 runs Algorithm 2 with all initial states ignored;
// since family members differ only in initial state, phase 1 behaves
// identically on every member and resolves the topology-only labeling —
// in particular each variable's structural label (hence its number of
// neighbors). Phase 2 re-runs Algorithm 2 with those structural labels
// folded into the initial states.
//
// Algorithm 4 (section 5) composes relabel with Algorithm 3 to solve
// selection in L: relabel turns the L system into one member of a
// homogeneous family (which member depends on the lock races), and
// Algorithm 3 — with peek/post simulated by lock-guarded read-modify-
// write — lets every processor learn its label in the family labeling.

// CombineInit encodes a processor's phase-2 initial state: its real
// initial state plus its phase-1 (structure-only) label. The real state
// is length-prefixed so one containing '@' cannot shift the frame and
// collide with a different (state, label) pair.
func CombineInit(orig string, label1 int) string {
	return fmt.Sprintf("%d@%s@%d", len(orig), orig, label1)
}

// Uniformize returns a copy of sys with all initial states erased —
// "ignoring the initial state", the paper's phase-1 precondition.
func Uniformize(sys *system.System) *system.System {
	out := sys.Clone()
	for p := range out.ProcInit {
		out.ProcInit[p] = ""
	}
	for v := range out.VarInit {
		out.VarInit[v] = ""
	}
	return out
}

// Phase2System builds the phase-2 reference system for one member: the
// member's topology with phase-1 labels folded into the initial states.
func Phase2System(sys *system.System, lab1 *core.Labeling) (*system.System, error) {
	if len(lab1.ProcLabels) != sys.NumProcs() || len(lab1.VarLabels) != sys.NumVars() {
		return nil, ErrShape
	}
	out := sys.Clone()
	for p := range out.ProcInit {
		out.ProcInit[p] = CombineInit(sys.ProcInit[p], lab1.ProcLabels[p])
	}
	for v := range out.VarInit {
		out.VarInit[v] = fmt.Sprintf("%d", lab1.VarLabels[v])
	}
	return out, nil
}

// Plan3 is a compiled Algorithm 3: the two topologies plus the ability to
// generate the program. MemberLabels maps each family member's processors
// to the phase-2 (family) labels the program will learn.
type Plan3 struct {
	Topo1 *Topology
	Topo2 *Topology
	// MemberLabels[i][p] is the family label processor p of member i
	// learns.
	MemberLabels [][]int
	// mode is InstrQ for Algorithm 3 proper, InstrL for Algorithm 4.
	mode    system.InstrSet
	relabel bool
}

// Program generates the uniform program for this plan with the given
// options (typically an Elite set for selection).
func (p *Plan3) Program(opts Options) (*machine.Program, error) {
	b := machine.NewBuilder()
	g := newGen(b, p.mode)
	if p.relabel {
		emitRelabel(g, p.Topo1.Names)
	}
	// Phase 1 ignores initial states: every processor starts suspecting
	// every phase-1 label, every variable every phase-1 variable label.
	// It must resolve variables too — that is its purpose.
	topo1, topo2 := p.Topo1, p.Topo2
	ps1 := newPhaseSyms(b, topo1.Names, 1)
	emitPhase(g, topo1, 1, Options{RequireVarResolution: true}, ps1, phaseInit{
		initPEC: func(r *machine.Regs) []int {
			return append([]int(nil), topo1.PLabels...)
		},
		initVEC: func(r *machine.Regs, j int) []int {
			return append([]int(nil), topo1.VLabels...)
		},
	}, "phase2")

	b.Label("phase2")
	ps2 := newPhaseSyms(b, topo2.Names, 2)
	emitPhase(g, topo2, 2, opts, ps2, phaseInit{
		initPEC: func(r *machine.Regs) []int {
			init, _ := r.Get(machine.SymInit).(string)
			l1, _ := r.Get(ps1.label).(int)
			combined := CombineInit(init, l1)
			var pec []int
			for _, alpha := range topo2.PLabels {
				if topo2.InitOfProc[alpha] == combined {
					pec = append(pec, alpha)
				}
			}
			return pec
		},
		initVEC: func(r *machine.Regs, j int) []int {
			vl1, ok := r.Get(ps1.varLabel[j]).(int)
			if !ok {
				return append([]int(nil), topo2.VLabels...)
			}
			want := fmt.Sprintf("%d", vl1)
			var vec []int
			for _, beta := range topo2.VLabels {
				if topo2.InitOfVar[beta] == want {
					vec = append(vec, beta)
				}
			}
			return vec
		},
	}, "end")
	b.Label("end")
	b.Halt()
	return b.Build()
}

// PlanAlgorithm3 compiles Algorithm 3 for a homogeneous family in Q.
func PlanAlgorithm3(fam *family.Family) (*Plan3, error) {
	plan, err := planPhases(fam)
	if err != nil {
		return nil, err
	}
	plan.mode = system.InstrQ
	return plan, nil
}

// PlanAlgorithm4 compiles Algorithm 4 for a system in L: relabel followed
// by Algorithm 3 over the homogeneous family of relabel outcomes, with Q
// access simulated through locks. MemberLabels then enumerates the
// paper's VERSIONS (one per relabel outcome, in one shared label space),
// which is what the Theorem 9 ELITE construction consumes.
//
// The outcomes are returned alongside so callers can correlate
// MemberLabels[i] with outcome i.
func PlanAlgorithm4(sys *system.System) (*Plan3, []*system.System, error) {
	if err := ValidateRuntime(sys); err != nil {
		return nil, nil, err
	}
	for v := range sys.VarInit {
		if sys.VarInit[v] != "0" {
			return nil, nil, fmt.Errorf("%w: relabel requires variable counters initialized to %q (var %d has %q)",
				ErrShape, "0", v, sys.VarInit[v])
		}
	}
	outcomes, err := family.RelabelOutcomes(sys)
	if err != nil {
		return nil, nil, err
	}
	fam, err := family.NewHomogeneous(outcomes)
	if err != nil {
		return nil, nil, err
	}
	plan, err := planPhases(fam)
	if err != nil {
		return nil, nil, err
	}
	plan.mode = system.InstrL
	plan.relabel = true
	return plan, outcomes, nil
}

func planPhases(fam *family.Family) (*Plan3, error) {
	if len(fam.Members) == 0 {
		return nil, family.ErrEmpty
	}
	// Phase 1: all members uniformize to the same system; its own
	// labeling is the structural labeling.
	unif := Uniformize(fam.Members[0])
	lab1, err := core.Similarity(unif, core.RuleQ)
	if err != nil {
		return nil, fmt.Errorf("distlabel: phase-1 labeling: %w", err)
	}
	topo1, err := TopologyFromSystem(unif, lab1)
	if err != nil {
		return nil, fmt.Errorf("distlabel: phase-1 topology: %w", err)
	}
	// Phase 2: members with structural labels folded into inits.
	members2 := make([]*system.System, len(fam.Members))
	for i, m := range fam.Members {
		members2[i], err = Phase2System(m, lab1)
		if err != nil {
			return nil, fmt.Errorf("distlabel: member %d: %w", i, err)
		}
	}
	fam2, err := family.NewHomogeneous(members2)
	if err != nil {
		return nil, fmt.Errorf("distlabel: phase-2 family: %w", err)
	}
	labs2, err := fam2.Labeling(core.RuleQ)
	if err != nil {
		return nil, fmt.Errorf("distlabel: phase-2 labeling: %w", err)
	}
	topo2, err := TopologyFromFamily(fam2, labs2)
	if err != nil {
		return nil, fmt.Errorf("distlabel: phase-2 topology: %w", err)
	}
	memberLabels := make([][]int, len(labs2))
	for i, ml := range labs2 {
		memberLabels[i] = append([]int(nil), ml.ProcLabels...)
	}
	return &Plan3{Topo1: topo1, Topo2: topo2, MemberLabels: memberLabels}, nil
}

// AllResolved reports whether every processor that has not crashed has
// halted with the given label local set — the convergence predicate for
// the labeling programs under streaming adversary harnesses ("label1"
// for Algorithm 2, "label2" for Algorithms 3 and 4).
func AllResolved(m *machine.Machine, local string) bool {
	for p := 0; p < m.NumProcs(); p++ {
		if m.Crashed(p) {
			continue
		}
		if !m.Halted(p) {
			return false
		}
		if _, ok := m.Local(p, local); !ok {
			return false
		}
	}
	return true
}
