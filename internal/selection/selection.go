// Package selection solves the paper's selection problem (section 3):
// given a system Σ, decide whether a selection algorithm exists — a
// uniform program establishing Uniqueness (exactly one processor sets
// selected) and maintaining Stability (selected processors stay selected)
// under every schedule in Σ's class — and produce it when it does.
//
// The decision procedure per model:
//
//   - General schedules: never solvable (Theorem 1; this is the FLP
//     argument).
//   - Q, fair or bounded-fair: solvable iff the similarity labeling Θ
//     has a uniquely-labeled processor (Theorems 2/3 for impossibility,
//     SELECT via Algorithm 2 for possibility; fair and bounded-fair
//     coincide for connected systems in Q).
//   - S, bounded-fair: same with set-based environments.
//   - S, fair: solvable iff some processor mimics no other (section 6).
//   - L: relabel yields the homogeneous family R; solvable iff every
//     VERSION (similarity labeling of a relabel outcome) has a
//     uniquely-labeled processor; the ELITE label set is built by the
//     Theorem 9 greedy loop and the program is Algorithm 4.
package selection

import (
	"errors"
	"fmt"
	"sort"

	"simsym/internal/core"
	"simsym/internal/distlabel"
	"simsym/internal/intset"
	"simsym/internal/machine"
	"simsym/internal/mimic"
	"simsym/internal/obs"
	"simsym/internal/system"
)

// Sentinel errors.
var (
	ErrUnsupportedModel = errors.New("selection: unsupported instruction set / schedule combination")
	ErrNotSolvable      = errors.New("selection: system has no selection algorithm")
	ErrEliteInvariant   = errors.New("selection: ELITE construction violated its invariant")
)

// Decision is the outcome of the selection problem for one model.
type Decision struct {
	Instr    system.InstrSet
	Sched    system.ScheduleClass
	Solvable bool
	// Reason explains the verdict in the paper's terms.
	Reason string
	// UniqueProcs lists uniquely-labeled processors (Q / bounded-fair S)
	// or mimic-free processors (fair S).
	UniqueProcs []int
	// Elite is the Theorem 9 label set (L only).
	Elite []int
	// NumVersions counts distinct relabel-outcome labelings (L only).
	NumVersions int
}

// Decide dispatches on the model and runs the right decision procedure.
func Decide(sys *system.System, instr system.InstrSet, sch system.ScheduleClass) (*Decision, error) {
	return DecideWith(sys, instr, sch, nil)
}

// DecideWith is Decide with an event recorder threaded through: the
// decision runs inside a selection.decide phase, the underlying
// similarity computation emits its refine-round events, and the verdict
// (solvable or not, with the paper's reason) lands as a KindVerdict
// event. A nil recorder records nothing.
func DecideWith(sys *system.System, instr system.InstrSet, sch system.ScheduleClass, rec *obs.Recorder) (*Decision, error) {
	rec.PhaseStart("selection.decide")
	d, err := decide(sys, instr, sch, rec)
	if err != nil {
		return nil, err
	}
	if rec.Enabled() {
		rec.Count("selection.decides", 1)
		if d.NumVersions > 0 {
			rec.Stat("selection.versions", int64(d.NumVersions))
		}
		rec.Verdict("selection.decide", d.Solvable, d.Reason)
		rec.PhaseEnd("selection.decide", 1)
	}
	return d, nil
}

func decide(sys *system.System, instr system.InstrSet, sch system.ScheduleClass, rec *obs.Recorder) (*Decision, error) {
	if sch == system.SchedGeneral {
		return &Decision{
			Instr: instr, Sched: sch, Solvable: false,
			Reason: "general schedules admit the Theorem 1 adversary (FLP): no selection algorithm exists",
		}, nil
	}
	switch instr {
	case system.InstrQ:
		d, _, err := decideByLabeling(sys, instr, sch, core.RuleQ, rec)
		return d, err
	case system.InstrS:
		if sch == system.SchedBoundedFair {
			d, _, err := decideByLabeling(sys, instr, sch, core.RuleSetS, rec)
			return d, err
		}
		return decideFairS(sys)
	case system.InstrL:
		return decideL(sys, rec)
	default:
		return nil, fmt.Errorf("%w: %v/%v", ErrUnsupportedModel, instr, sch)
	}
}

// decideByLabeling decides from the similarity labeling under rule and
// returns that labeling with the decision.
func decideByLabeling(sys *system.System, instr system.InstrSet, sch system.ScheduleClass, rule core.Rule, rec *obs.Recorder) (*Decision, *core.Labeling, error) {
	lab, err := core.SimilarityWith(sys, rule, core.Config{Obs: rec})
	if err != nil {
		return nil, nil, fmt.Errorf("selection: %w", err)
	}
	d := &Decision{Instr: instr, Sched: sch, UniqueProcs: lab.UniqueProcs()}
	if len(d.UniqueProcs) > 0 {
		d.Solvable = true
		d.Reason = fmt.Sprintf("similarity labeling has %d uniquely-labeled processor(s); SELECT elects one via Algorithm 2", len(d.UniqueProcs))
	} else {
		d.Reason = "every processor is similar to another (Theorems 2 and 3)"
	}
	return d, lab, nil
}

func decideFairS(sys *system.System) (*Decision, error) {
	rel, err := mimic.Compute(sys)
	if err != nil {
		return nil, fmt.Errorf("selection: %w", err)
	}
	d := &Decision{Instr: system.InstrS, Sched: system.SchedFair, UniqueProcs: rel.MimicsNobody()}
	if len(d.UniqueProcs) > 0 {
		d.Solvable = true
		d.Reason = fmt.Sprintf("%d processor(s) mimic no other and can safely self-select", len(d.UniqueProcs))
	} else {
		d.Reason = "every processor mimics another: arbitrarily-delayed subsystems hide the truth forever"
	}
	return d, nil
}

// DecideL runs the L-model decision: enumerate relabel outcomes, compute
// VERSIONS, and build ELITE when possible. Fair and bounded-fair coincide.
func DecideL(sys *system.System) (*Decision, error) {
	return decideL(sys, nil)
}

func decideL(sys *system.System, rec *obs.Recorder) (*Decision, error) {
	plan, _, err := distlabel.PlanAlgorithm4(sys)
	if err != nil {
		return nil, fmt.Errorf("selection: %w", err)
	}
	versions := dedupVersions(plan.MemberLabels)
	d := &Decision{Instr: system.InstrL, Sched: system.SchedFair, NumVersions: len(versions)}
	for _, v := range versions {
		if len(uniqueLabels(v)) == 0 {
			d.Reason = "some relabel outcome keeps every processor similar to another (Theorem 3 via Theorem 8)"
			return d, nil
		}
	}
	elite, err := BuildElite(versions)
	if err != nil {
		return nil, err
	}
	d.Solvable = true
	d.Elite = elite
	d.Reason = fmt.Sprintf("every relabel outcome has a uniquely-labeled processor; ELITE=%v selects via Algorithm 4 (Theorem 9)", elite)
	return d, nil
}

// BuildElite runs the Theorem 9 construction: repeatedly pick a version
// with no processor labeled in ELITE, add one of its unique labels, and
// stop when every version is covered. The resulting invariant — every
// version has exactly one processor with a label in ELITE — is verified
// explicitly, and its violation reported as ErrEliteInvariant.
func BuildElite(versions [][]int) ([]int, error) {
	var elite []int
	for {
		idx := -1
		for i, v := range versions {
			if countEliteProcs(v, elite) == 0 {
				idx = i
				break
			}
		}
		if idx == -1 {
			break
		}
		uniq := uniqueLabels(versions[idx])
		if len(uniq) == 0 {
			return nil, fmt.Errorf("%w: version %d has no uniquely-labeled processor", ErrNotSolvable, idx)
		}
		elite = intset.Union(elite, []int{uniq[0]})
	}
	for i, v := range versions {
		if n := countEliteProcs(v, elite); n != 1 {
			return nil, fmt.Errorf("%w: version %d has %d elite processors", ErrEliteInvariant, i, n)
		}
	}
	return elite, nil
}

func countEliteProcs(labels []int, elite []int) int {
	n := 0
	for _, l := range labels {
		if intset.Contains(elite, l) {
			n++
		}
	}
	return n
}

func uniqueLabels(labels []int) []int {
	count := make(map[int]int)
	for _, l := range labels {
		count[l]++
	}
	var out []int
	for l, c := range count {
		if c == 1 {
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}

func dedupVersions(versions [][]int) [][]int {
	seen := make(map[string]bool)
	var out [][]int
	for _, v := range versions {
		key := fmt.Sprint(v)
		if !seen[key] {
			seen[key] = true
			out = append(out, v)
		}
	}
	return out
}

// Select produces the runnable selection program for a solvable system,
// dispatching on the instruction set:
//
//   - Q: Algorithm 2 with an ELITE of one designated unique label
//     (the paper's SELECT(Σ)).
//   - S bounded-fair: Algorithm 2-S — read/write only, set-based
//     alibis, perpetual post refresh (section 6's "nearly the same"
//     algorithm). The program never halts; selection stabilizes.
//   - L: Algorithm 4 (relabel, then the two-phase label learning with
//     lock-simulated posts, then elect the ELITE holder).
//
// The returned Decision explains the construction.
func Select(sys *system.System, instr system.InstrSet, sch system.ScheduleClass) (*machine.Program, *Decision, error) {
	return SelectWith(sys, instr, sch, nil)
}

// SelectWith is Select with an event recorder threaded through the
// decision and program construction. A nil recorder records nothing.
func SelectWith(sys *system.System, instr system.InstrSet, sch system.ScheduleClass, rec *obs.Recorder) (*machine.Program, *Decision, error) {
	rec.PhaseStart("selection.select")
	prog, d, err := buildSelect(sys, instr, sch, rec)
	if err != nil {
		if d != nil && rec.Enabled() {
			rec.Verdict("selection.select", false, d.Reason)
			rec.PhaseEnd("selection.select", 0)
		}
		return prog, d, err
	}
	if rec.Enabled() {
		rec.Count("selection.selects", 1)
		rec.Verdict("selection.select", true, d.Reason)
		rec.PhaseEnd("selection.select", int64(prog.Len()))
	}
	return prog, d, nil
}

func buildSelect(sys *system.System, instr system.InstrSet, sch system.ScheduleClass, rec *obs.Recorder) (*machine.Program, *Decision, error) {
	switch instr {
	case system.InstrQ, system.InstrS:
		rule, algorithm2 := core.RuleQ, distlabel.Algorithm2
		if instr == system.InstrS {
			if sch != system.SchedBoundedFair {
				return nil, nil, fmt.Errorf("%w: S selection programs need bounded-fair schedules", ErrUnsupportedModel)
			}
			rule, algorithm2 = core.RuleSetS, distlabel.Algorithm2S
		}
		d, lab, err := decideByLabeling(sys, instr, sch, rule, rec)
		if err != nil {
			return nil, nil, err
		}
		if !d.Solvable {
			return nil, d, fmt.Errorf("%w: %s", ErrNotSolvable, d.Reason)
		}
		if err := distlabel.ValidateRuntime(sys); err != nil {
			return nil, nil, fmt.Errorf("selection: %w", err)
		}
		topo, err := distlabel.TopologyFromSystem(sys, lab)
		if err != nil {
			return nil, nil, fmt.Errorf("selection: %w", err)
		}
		d.Elite = []int{lab.ProcLabels[d.UniqueProcs[0]]}
		prog, err := algorithm2(topo, distlabel.Options{Elite: d.Elite})
		if err != nil {
			return nil, nil, fmt.Errorf("selection: %w", err)
		}
		return prog, d, nil
	case system.InstrL:
		d, err := decideL(sys, rec)
		if err != nil {
			return nil, nil, err
		}
		if !d.Solvable {
			return nil, d, fmt.Errorf("%w: %s", ErrNotSolvable, d.Reason)
		}
		plan, _, err := distlabel.PlanAlgorithm4(sys)
		if err != nil {
			return nil, nil, fmt.Errorf("selection: %w", err)
		}
		prog, err := plan.Program(distlabel.Options{Elite: d.Elite})
		if err != nil {
			return nil, nil, fmt.Errorf("selection: %w", err)
		}
		return prog, d, nil
	default:
		return nil, nil, fmt.Errorf("%w: Select for %v", ErrUnsupportedModel, instr)
	}
}

// Settled reports whether a SELECT run has converged: every processor has
// halted or declared itself done, and exactly one processor is selected.
// The Q and L programs halt outright; the S program never halts (resolved
// processors refresh their posts forever, as the paper's bounded-fair
// construction requires) and signals completion through the "done" local
// instead. This is the convergence predicate for streaming adversary
// harnesses, which cannot rely on AllHalted.
func Settled(m *machine.Machine) bool {
	for p := 0; p < m.NumProcs(); p++ {
		if m.Halted(p) {
			continue
		}
		if d, ok := m.Local(p, "done"); !ok || d != true {
			return false
		}
	}
	return len(m.SelectedProcs()) == 1
}
