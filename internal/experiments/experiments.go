package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"simsym/internal/adversary"
	"simsym/internal/autgrp"
	"simsym/internal/core"
	"simsym/internal/dining"
	"simsym/internal/distlabel"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/mimic"
	"simsym/internal/msgpass"
	"simsym/internal/obs"
	"simsym/internal/randomized"
	"simsym/internal/sched"
	"simsym/internal/selection"
	"simsym/internal/system"
	"simsym/internal/trace"
)

// MCProgress, when non-nil, receives the model checker's periodic
// progress snapshots during the long-running checks (E5, E13). The
// experiments command wires it to stderr behind -progress.
var MCProgress func(mc.Stats)

// Obs, when non-nil, receives the structured event stream and feeds the
// metrics registry for the model checks and similarity labelings inside
// the experiments. The experiments command wires it behind -metrics,
// -trace-jsonl, and -pprof; nil (the default) keeps every hot path on
// the one-branch no-op.
var Obs *obs.Recorder

// E1Fig1 reproduces Figure 1 / Theorem 2: the two processors sharing one
// variable are similar, random programs keep them in lock step under
// round-robin, and selection is impossible in S and Q but possible in L.
func E1Fig1() (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Figure 1 — a trivial system: similarity kills selection",
		Header: []string{"property", "value"},
	}
	s := system.Fig1()
	lab, err := core.Similarity(s, core.RuleQ)
	if err != nil {
		return nil, err
	}
	t.AddRow("similarity classes (Q)", fmt.Sprintf("%d (p ~ q: %v)", lab.NumProcClasses(), lab.SameClass(0, 1)))

	// Random-program witness: for any program, round-robin keeps p and q
	// in the same state at every round boundary.
	rng := rand.New(rand.NewSource(1))
	synced := 0
	const programs = 40
	for i := 0; i < programs; i++ {
		prog, err := machine.RandomProgram(rng, s.Names, system.InstrQ, 1+rng.Intn(10))
		if err != nil {
			return nil, err
		}
		rep, err := trace.Witness(s, system.InstrQ, prog, lab, 40)
		if err != nil {
			return nil, err
		}
		if rep.Synced() {
			synced++
		}
	}
	t.AddRow("round-robin witness", fmt.Sprintf("%d/%d random programs stayed in lock step", synced, programs))

	for _, model := range []struct {
		name  string
		instr system.InstrSet
		sch   system.ScheduleClass
	}{
		{"selection in Q (fair)", system.InstrQ, system.SchedFair},
		{"selection in S (bounded-fair)", system.InstrS, system.SchedBoundedFair},
		{"selection in L (fair)", system.InstrL, system.SchedFair},
	} {
		d, err := selection.Decide(s, model.instr, model.sch)
		if err != nil {
			return nil, err
		}
		t.AddRow(model.name, yesNo(d.Solvable))
	}
	t.Note("paper: p and q behave similarly under round-robin, so no program can select either (Theorem 2); the lock race rescues L")
	return t, nil
}

// E2Alibi reproduces Figure 2 / Algorithm 2 / Theorem 6: the alibi
// machinery lets every processor—including p3—learn its similarity label;
// measured are convergence rounds under shuffled fair schedules.
func E2Alibi(seeds int) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Figure 2 — complicated alibis: Algorithm 2 learns labels",
		Header: []string{"seed", "rounds to converge", "labels learned correctly"},
	}
	s := system.Fig2()
	lab, err := core.Similarity(s, core.RuleQ)
	if err != nil {
		return nil, err
	}
	topo, err := distlabel.TopologyFromSystem(s, lab)
	if err != nil {
		return nil, err
	}
	prog, err := distlabel.Algorithm2(topo, distlabel.Options{})
	if err != nil {
		return nil, err
	}
	for seed := 0; seed < seeds; seed++ {
		m, err := machine.New(s, system.InstrQ, prog)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		rounds := 0
		for !m.AllHalted() && rounds < 1000 {
			round, err := sched.ShuffledRounds(rng, s.NumProcs(), 1)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(round); err != nil {
				return nil, err
			}
			rounds++
		}
		correct := true
		for p := 0; p < s.NumProcs(); p++ {
			v, ok := m.Local(p, "label1")
			if !ok || v.(int) != lab.ProcLabels[p] {
				correct = false
			}
		}
		t.AddRow(fmt.Sprint(seed), fmt.Sprint(rounds), yesNo(correct))
	}
	t.Note("similarity classes: {p1,p2} and {p3}; p3 learns its label from the two resolved posts in v3, exactly the paper's walkthrough")
	return t, nil
}

// E3Mimic reproduces Figure 3 / section 6 (fair S): the bounded-fair
// labeling separates p, q, z, yet everyone mimics someone, so fair-S
// selection is impossible while bounded-fair-S selection works.
func E3Mimic() (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Figure 3 — fair S: dissimilar processors that mimic each other",
		Header: []string{"property", "value"},
	}
	s := system.Fig3()
	lab, err := core.Similarity(s, core.RuleSetS)
	if err != nil {
		return nil, err
	}
	t.AddRow("bounded-fair similarity classes", fmt.Sprint(lab.NumProcClasses()))
	rel, err := mimic.Compute(s)
	if err != nil {
		return nil, err
	}
	pairs := ""
	names := []string{"p", "q", "z"}
	for x := 0; x < 3; x++ {
		for y := x + 1; y < 3; y++ {
			if rel.Mimics(x, y) {
				if pairs != "" {
					pairs += ", "
				}
				pairs += names[x] + "~" + names[y]
			}
		}
	}
	t.AddRow("mimic pairs", pairs)
	t.AddRow("processors mimicking nobody", fmt.Sprint(len(rel.MimicsNobody())))
	dBF, err := selection.Decide(s, system.InstrS, system.SchedBoundedFair)
	if err != nil {
		return nil, err
	}
	dF, err := selection.Decide(s, system.InstrS, system.SchedFair)
	if err != nil {
		return nil, err
	}
	t.AddRow("selection, bounded-fair S", yesNo(dBF.Solvable))
	t.AddRow("selection, fair S", yesNo(dF.Solvable))
	t.Note("if z never executes, p and q behave as if similar; p cannot tell whether z has executed — the figure's reconstruction exhibits the paper's separation")
	return t, nil
}

// E4DP5 reproduces Figure 4 / Theorem 11 / DP: all five philosophers are
// graph-symmetric, hence similar in Q and (five being prime) in L; the
// uniform fork program deadlocks under round-robin.
func E4DP5() (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "Figure 4 — five dining philosophers: DP impossibility",
		Header: []string{"property", "value"},
	}
	s, err := system.Dining(5)
	if err != nil {
		return nil, err
	}
	o, err := autgrp.Compute(s)
	if err != nil {
		return nil, err
	}
	t.AddRow("|Aut| (graph symmetry)", fmt.Sprint(o.GroupOrder))
	t.AddRow("philosopher orbits", fmt.Sprint(len(o.ProcClasses())))
	t.AddRow("Theorem 11 hypothesis (distributed, prime orbit)",
		yesNo(autgrp.Theorem11Hypothesis(s, o, o.ProcOrbit[0])))
	lab, err := core.Similarity(s, core.RuleQ)
	if err != nil {
		return nil, err
	}
	okL, err := core.IsSupersimilarityForL(s, lab)
	if err != nil {
		return nil, err
	}
	t.AddRow("all-similar labeling is L-supersimilar (Thm 8)", yesNo(okL))
	d, err := selection.Decide(s, system.InstrL, system.SchedFair)
	if err != nil {
		return nil, err
	}
	t.AddRow("selection in L", yesNo(d.Solvable))
	t.AddRow("relabel versions", fmt.Sprint(d.NumVersions))
	for _, order := range []struct{ first, second system.Name }{{"left", "right"}, {"right", "left"}} {
		prog, err := dining.Program(order.first, order.second, 1)
		if err != nil {
			return nil, err
		}
		round, found, err := dining.FindDeadlockRoundRobin(s, prog, 200)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%s-%s program deadlock (round-robin)", order.first, order.second),
			fmt.Sprintf("%s (round %d)", yesNo(found), round))
	}
	t.Note("five is prime: Theorem 11 forces all philosophers similar even in L, so no symmetric deterministic solution exists (DP)")
	return t, nil
}

// E5DP6 reproduces Figure 5 / DP': the flipped six-table makes every fork
// a shared-left or shared-right fork; the same uniform program is now
// deadlock-free (model-checked) and everyone eats under round-robin.
// With maxStates above the table's ~8.56M-state closure, the capacity
// check (collapse-compressed keys) closes the space exhaustively (the
// bounded probe stays capped at 60k regardless).
func E5DP6(maxStates int) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "Figure 5 — six flipped philosophers: DP' solution",
		Header: []string{"property", "value"},
	}
	s, err := system.DiningFlipped(6)
	if err != nil {
		return nil, err
	}
	o, err := autgrp.Compute(s)
	if err != nil {
		return nil, err
	}
	t.AddRow("|Aut|", fmt.Sprint(o.GroupOrder))
	t.AddRow("philosopher orbits", fmt.Sprint(len(o.ProcClasses())))
	t.AddRow("fork orbits", fmt.Sprint(len(o.VarClasses())))
	lab, err := core.SimilarityWith(s, core.RuleQ, core.Config{Obs: Obs})
	if err != nil {
		return nil, err
	}
	t.AddRow("philosopher similarity classes (Q)", fmt.Sprint(lab.NumProcClasses()))
	t.AddRow("fork similarity classes (Q)", fmt.Sprint(lab.NumVarClasses()))

	prog, err := dining.Program("left", "right", 1)
	if err != nil {
		return nil, err
	}
	// The bounded probe stays capped at 60k states; the capacity check
	// below is what takes the table to closure.
	bounded := maxStates
	if bounded > 60_000 {
		bounded = 60_000
	}
	rep, err := dining.CheckWith(s, prog, mc.Options{
		MaxStates: bounded,
		Progress:  MCProgress,
		Obs:       Obs,
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("model check: exclusion violated", yesNo(rep.ExclusionViolated != nil))
	t.AddRow("model check: deadlock found", yesNo(rep.Deadlocked != nil))
	t.AddRow("model check: states explored", fmt.Sprintf("%d (complete=%v)", rep.StatesExplored, rep.Complete))
	t.AddRow("model check: dedup hits / states per second",
		fmt.Sprintf("%d / %.0f", rep.Stats.DedupHits, rep.Stats.StatesPerSec))

	// Capacity headline: component-id vectors close the full
	// 8.56M-state table. Its 20 distinct windows take one byte per id, so
	// the vectors take about 103 MB.
	repCap, err := dining.CheckWith(s, prog, mc.Options{
		MaxStates: maxStates,
		Progress:  MCProgress,
		Obs:       Obs,
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("capacity check: states explored",
		fmt.Sprintf("%d (complete=%v, safe=%v, depth=%d)", repCap.StatesExplored, repCap.Complete,
			repCap.ExclusionViolated == nil && repCap.Deadlocked == nil, repCap.Stats.Depth))
	bytesPerState := "n/a"
	if repCap.StatesExplored > 0 {
		bytesPerState = fmt.Sprintf("%.1f", float64(repCap.Stats.PeakMemBytes)/float64(repCap.StatesExplored))
	}
	t.AddRow("capacity check: states/sec",
		fmt.Sprintf("%.0f (one goroutine, %s elapsed)", repCap.Stats.StatesPerSec, repCap.Stats.Elapsed.Round(time.Millisecond)))
	t.AddRow("capacity check: peak bytes/state",
		fmt.Sprintf("%s (key bytes %d stored as id vectors + windows / %d logical)",
			bytesPerState, repCap.Stats.StoredKeyBytes, repCap.Stats.LogicalKeyBytes))
	// The same close in the orbit quotient, at the same state cap.
	repSym, err := dining.CheckWith(s, prog, mc.Options{
		MaxStates:      maxStates,
		SymmetryReduce: true,
		Progress:       MCProgress,
		Obs:            Obs,
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("capacity check (symmetry-reduced)", symRow(repCap, repSym))

	mealProg, err := dining.Program("left", "right", 3)
	if err != nil {
		return nil, err
	}
	meals, err := dining.RunFair(s, mealProg, 500)
	if err != nil {
		return nil, err
	}
	all := true
	for _, m := range meals {
		if m != 3 {
			all = false
		}
	}
	t.AddRow("round-robin progress (3 meals each)", yesNo(all))

	// The smaller flipped table closes completely.
	s4, err := system.DiningFlipped(4)
	if err != nil {
		return nil, err
	}
	rep4, err := dining.CheckWith(s4, prog, mc.Options{
		MaxStates: maxStates,
		Progress:  MCProgress,
		Obs:       Obs,
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("flipped table of 4: exhaustive check",
		fmt.Sprintf("safe=%v complete=%v (%d states)",
			rep4.ExclusionViolated == nil && rep4.Deadlocked == nil, rep4.Complete, rep4.StatesExplored))
	// The closed 4-table searched in the orbit quotient: canonicalizing
	// states under Aut before dedup covers the same ground with a
	// fraction of the representatives (the bounded 6-table run above is
	// left unreduced — at a state cap both modes simply fill the cap).
	rep4Sym, err := dining.CheckWith(s4, prog, mc.Options{
		MaxStates:      maxStates,
		SymmetryReduce: true,
		Progress:       MCProgress,
		Obs:            Obs,
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("flipped table of 4: symmetry-reduced check", symRow(rep4, rep4Sym))

	// Jepsen-style fault sweep on the closed table of 4: crash and stall
	// faults cost progress but never safety, while lock-drop attacks the
	// resource-hierarchy assumption itself, so a violation there comes
	// with a replayable trace rather than a correctness claim.
	for _, fc := range []struct {
		name string
		spec adversary.Spec
	}{
		{"crash", adversary.Spec{CrashRate: 0.01, MaxCrashes: 1, CrashSeed: 7}},
		{"stall", adversary.Spec{StallRate: 0.05, StallLen: 9, StallSeed: 7}},
		{"lock-drop", adversary.Spec{DropRate: 0.02, DropSeed: 7}},
	} {
		h, err := adversary.NewDiningHarness(s4, 2,
			adversary.Shuffled(rand.New(rand.NewSource(7)), s4.NumProcs()))
		if err != nil {
			return nil, err
		}
		h.Faults = adversary.NewFaults(fc.spec, s4.NumProcs(), s4.NumVars())
		h.MaxSlots = 20_000
		res, err := h.Run()
		if err != nil {
			return nil, err
		}
		excl := "held"
		if res.Violation != nil {
			excl = fmt.Sprintf("VIOLATED: %s (%d-slot replayable trace)",
				res.Violation.Reason, len(res.Schedule))
		}
		t.AddRow("fault sweep (flipped 4): "+fc.name,
			fmt.Sprintf("exclusion %s; converged=%v steps=%d fault events=%d",
				excl, res.Done, res.Steps, len(res.FaultLog)))
	}
	t.Note("alternate philosophers face away, so left forks form level 1 and right forks level 2 of a resource hierarchy: lock-left-then-right is deadlock-free")
	return t, nil
}

// symRow formats a symmetry-reduced check beside the full check of the
// same table, with the quotient once both closed.
func symRow(full, sym *dining.Report) string {
	quotient := "n/a"
	if full.Complete && sym.Complete {
		quotient = fmt.Sprintf("%.2fx", float64(full.StatesExplored)/float64(sym.StatesExplored))
	}
	return fmt.Sprintf("safe=%v complete=%v (%d representatives, quotient %s)",
		sym.ExclusionViolated == nil && sym.Deadlocked == nil, sym.Complete, sym.StatesExplored, quotient)
}

// E6Scaling reproduces Theorem 5: Algorithm 1 runs in O(N log N) with
// Hopcroft's smaller-half strategy. A marked ring is the adversarial
// input — the distinction propagates one hop per round, so the naive
// Algorithm 1 transcription is cubic-ish, the dirty-slot worklist (a
// partition.Dyn build) is quadratic, and only the smaller-half driver
// achieves the [H71] bound.
// All three are timed as the DESIGN.md ablation.
func E6Scaling(sizes []int, slowLimit int) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Theorem 5 — similarity labeling scaling (marked rings)",
		Header: []string{"n", "classes", "hopcroft", "worklist", "naive"},
	}
	for _, n := range sizes {
		s, err := system.Ring(n)
		if err != nil {
			return nil, err
		}
		s.ProcInit[0] = "leader"
		start := time.Now()
		lab, err := core.Similarity(s, core.RuleQ)
		if err != nil {
			return nil, err
		}
		hopcroft := time.Since(start)
		worklistStr, naiveStr := "-", "-"
		if n <= slowLimit {
			start = time.Now()
			if _, err := core.SimilarityWorklist(s, core.RuleQ); err != nil {
				return nil, err
			}
			worklistStr = time.Since(start).Round(time.Microsecond).String()
			start = time.Now()
			if _, err := core.SimilarityNaive(s, core.RuleQ); err != nil {
				return nil, err
			}
			naiveStr = time.Since(start).Round(time.Microsecond).String()
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(lab.NumProcClasses()),
			hopcroft.Round(time.Microsecond).String(), worklistStr, naiveStr)
	}
	t.Note("the marked ring separates fully (classes = n); only the smaller-half driver stays near-linear, reproducing Theorem 5's O(N log N)")
	return t, nil
}

// E7FLP reproduces Theorem 1 (the FLP special case): for the strawman S
// selection program, the model checker constructs the general schedule
// that selects two processors.
func E7FLP() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Theorem 1 — general schedules: the FLP adversary",
		Header: []string{"property", "value"},
	}
	s := system.Fig1()
	b := machine.NewBuilder()
	x, selectedS, markS := b.Sym("x"), b.Sym("selected"), b.Sym("mark")
	b.Read("n", "x")
	b.Compute(func(r *machine.Regs) {
		if r.Get(x) == "0" {
			r.Set(selectedS, true)
			r.Set(markS, "taken")
		} else {
			r.Set(markS, "seen")
		}
	})
	b.Write("n", "mark")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	res, err := mc.Check(func() (*machine.Machine, error) {
		return machine.New(s, system.InstrS, prog)
	}, mc.Options{StatePreds: []mc.StatePredicate{mc.UniquenessPred}, Obs: Obs})
	if err != nil {
		return nil, err
	}
	if res.Exhausted != "" {
		return nil, fmt.Errorf("E7: the %s budget was spent after %d states", res.Exhausted, res.StatesExplored)
	}
	t.AddRow("states explored", fmt.Sprint(res.StatesExplored))
	t.AddRow("transitions / dedup hits / stutter steps",
		fmt.Sprintf("%d / %d / %d", res.Stats.Transitions, res.Stats.DedupHits, res.Stats.SelfLoops))
	if res.Violation != nil {
		t.AddRow("double-selection schedule found", "yes")
		t.AddRow("witness schedule", fmt.Sprint(res.Violation.Schedule))
	} else {
		t.AddRow("double-selection schedule found", "no")
	}
	d, err := selection.Decide(s, system.InstrS, system.SchedGeneral)
	if err != nil {
		return nil, err
	}
	t.AddRow("decision procedure (general schedules)", yesNo(d.Solvable))

	// The streaming FLP adversary finds the same interleaving
	// constructively: it probes each step on a clone and, when both
	// processors are poised to select, steps them back-to-back.
	fh := &adversary.Harness{
		Sys:        s,
		Instr:      system.InstrS,
		Prog:       prog,
		Sched:      adversary.NewFLP(),
		StatePreds: []mc.StatePredicate{mc.UniquenessPred},
	}
	fres, err := fh.Run()
	if err != nil {
		return nil, err
	}
	adaptive := "no violation (adversary defeated)"
	if fres.Violation != nil {
		adaptive = fmt.Sprintf("%s at step %d (schedule %v)",
			fres.Violation.Reason, fres.Violation.Step, fres.Schedule)
	}
	t.AddRow("adaptive FLP adversary (streaming)", adaptive)
	t.Note("the checker finds the ε/ρ interleaving from Theorem 1's proof: both processors read before either writes")
	return t, nil
}

// E8Hierarchy reproduces the section 9 hierarchy L ⊃ Q ⊃ BF-S ⊃ F-S:
// each witness system is solvable in exactly the models at or above its
// separation level.
func E8Hierarchy() (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Section 9 — the model-power hierarchy with witnesses",
		Header: []string{"system", "L", "Q", "BF-S", "F-S"},
	}
	ring, err := system.Ring(4)
	if err != nil {
		return nil, err
	}
	marked, err := system.Ring(4)
	if err != nil {
		return nil, err
	}
	marked.ProcInit[0] = "leader"
	rows := []struct {
		name string
		sys  *system.System
	}{
		{"Fig1 (L/Q separator)", system.Fig1()},
		{"Fig2 (Q/BF-S separator)", system.QOverSWitness()},
		{"Fig3 (BF-S/F-S separator)", system.Fig3()},
		{"anonymous ring(4)", ring},
		{"marked ring(4)", marked},
	}
	for _, row := range rows {
		verdict := func(instr system.InstrSet, sch system.ScheduleClass) string {
			d, err := selection.Decide(row.sys, instr, sch)
			if err != nil {
				return "err"
			}
			return yesNo(d.Solvable)
		}
		t.AddRow(row.name,
			verdict(system.InstrL, system.SchedFair),
			verdict(system.InstrQ, system.SchedFair),
			verdict(system.InstrS, system.SchedBoundedFair),
			verdict(system.InstrS, system.SchedFair),
		)
	}
	t.Note("each separator is solvable in the stronger model and unsolvable in the weaker: the strict chain L > Q > bounded-fair S > fair S")
	return t, nil
}

// E9Randomized reproduces the section 8 randomization claims: the
// deterministic baseline deadlocks where Itai–Rodeh and Lehmann–Rabin
// succeed with probability 1.
func E9Randomized(runs int) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Section 8 — the added power of randomization",
		Header: []string{"n", "deterministic selection (L)", "IR success", "IR mean phases", "IR mean msgs"},
	}
	for _, n := range []int{3, 5, 8, 16} {
		ring, err := system.Ring(n)
		if err != nil {
			return nil, err
		}
		det := "impossible"
		if n <= 8 {
			d, err := selection.Decide(ring, system.InstrL, system.SchedFair)
			if err != nil {
				return nil, err
			}
			if d.Solvable {
				det = "possible"
			}
		}
		stats, err := randomized.ElectionSweep(int64(n), n, 16, 500, runs)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), det,
			fmt.Sprintf("%d/%d", stats.Successes, stats.Runs),
			fmt.Sprintf("%.2f", stats.MeanPhases),
			fmt.Sprintf("%.0f", stats.MeanMsgs))
	}
	rng := rand.New(rand.NewSource(99))
	lr, err := randomized.LehmannRabin(rng, 5, 20_000)
	if err != nil {
		return nil, err
	}
	minMeals := lr.Meals[0]
	for _, m := range lr.Meals {
		if m < minMeals {
			minMeals = m
		}
	}
	steps, err := randomized.StubbornLeftFirst(5, 10_000)
	if err != nil {
		return nil, err
	}
	t.Note("Lehmann–Rabin on 5 philosophers: min meals %d over 20k steps; deterministic left-first deadlocks after %d steps", minMeals, steps)
	return t, nil
}

// E10Orbits reproduces Theorems 10–11 quantitatively: orbits always
// refine similarity, and prime symmetric classes collapse in L while
// composite flipped tables escape.
func E10Orbits() (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "Theorems 10–11 — symmetry vs similarity, prime vs composite",
		Header: []string{"system", "|Aut|", "proc orbits", "sim classes (Q)", "orbits refine sim", "Thm 11 applies"},
	}
	type entry struct {
		name string
		sys  *system.System
	}
	var entries []entry
	for _, n := range []int{3, 5, 7} {
		dp, err := system.Dining(n)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{fmt.Sprintf("dining(%d)", n), dp})
	}
	for _, n := range []int{4, 6} {
		dp, err := system.DiningFlipped(n)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{fmt.Sprintf("flipped(%d)", n), dp})
	}
	entries = append(entries, entry{"fig2", system.Fig2()})
	for _, e := range entries {
		o, err := autgrp.Compute(e.sys)
		if err != nil {
			return nil, err
		}
		lab, err := core.Similarity(e.sys, core.RuleQ)
		if err != nil {
			return nil, err
		}
		t.AddRow(e.name,
			fmt.Sprint(o.GroupOrder),
			fmt.Sprint(len(o.ProcClasses())),
			fmt.Sprint(lab.NumProcClasses()),
			yesNo(o.RefinesSimilarity(lab)),
			yesNo(autgrp.Theorem11Hypothesis(e.sys, o, o.ProcOrbit[0])),
		)
	}
	t.Note("Theorem 10: symmetric nodes are similar in Q (orbits refine similarity everywhere); Theorem 11 bites exactly at prime orbit sizes")
	return t, nil
}

// E11EliteL reproduces Theorems 7–9 / Algorithm 4: relabel-outcome
// versions, ELITE construction, and end-to-end runs selecting exactly one
// processor.
func E11EliteL(runsPerSystem int) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Theorems 7–9 — ELITE and Algorithm 4 in L",
		Header: []string{"system", "versions", "solvable", "|ELITE|", "runs selecting exactly one"},
	}
	entries := []struct {
		name string
		sys  *system.System
	}{
		{"fig1", system.Fig1()},
		{"fig2", system.Fig2()},
		{"ring(4)", mustRing(4)},
		{"dining(5)", mustDining(5)},
	}
	for _, e := range entries {
		d, err := selection.DecideL(e.sys)
		if err != nil {
			return nil, err
		}
		runs := "-"
		if d.Solvable {
			prog, _, err := selection.Select(e.sys, system.InstrL, system.SchedFair)
			if err != nil {
				return nil, err
			}
			good := 0
			for seed := 0; seed < runsPerSystem; seed++ {
				m, err := machine.New(e.sys, system.InstrL, prog)
				if err != nil {
					return nil, err
				}
				rng := rand.New(rand.NewSource(int64(seed)))
				for r := 0; r < 4000 && !m.AllHalted(); r++ {
					round, err := sched.ShuffledRounds(rng, e.sys.NumProcs(), 1)
					if err != nil {
						return nil, err
					}
					if _, err := m.Run(round); err != nil {
						return nil, err
					}
				}
				if len(m.SelectedProcs()) == 1 {
					good++
				}
			}
			runs = fmt.Sprintf("%d/%d", good, runsPerSystem)
		}
		t.AddRow(e.name, fmt.Sprint(d.NumVersions), yesNo(d.Solvable), fmt.Sprint(len(d.Elite)), runs)
	}
	t.Note("rings and the five-table have a relabel outcome keeping everyone paired (no selection); same-name sharers always separate")
	return t, nil
}

// E12MsgPass reproduces the section 6 message-passing claims.
func E12MsgPass() (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "Section 6 — message passing and CSP",
		Header: []string{"network", "classes (count)", "unique procs", "classes (set)", "CSP-transfer", "safe deciders (fair)"},
	}
	type entry struct {
		name string
		net  *msgpass.Network
	}
	ring5, err := msgpass.DirectedRing(5)
	if err != nil {
		return nil, err
	}
	marked, err := msgpass.DirectedRing(5)
	if err != nil {
		return nil, err
	}
	marked.Init[0] = "leader"
	bi, err := msgpass.BiRing(4)
	if err != nil {
		return nil, err
	}
	chain, err := msgpass.Chain(4)
	if err != nil {
		return nil, err
	}
	for _, e := range []entry{
		{"directed ring(5)", ring5},
		{"marked ring(5)", marked},
		{"bidirectional ring(4)", bi},
		{"chain(4)", chain},
	} {
		cnt, err := msgpass.Similarity(e.net, true)
		if err != nil {
			return nil, err
		}
		set, err := msgpass.Similarity(e.net, false)
		if err != nil {
			return nil, err
		}
		csp, err := msgpass.NoAdjacentSameLabel(e.net, cnt)
		if err != nil {
			return nil, err
		}
		rel, err := msgpass.Mimics(e.net)
		if err != nil {
			return nil, err
		}
		t.AddRow(e.name,
			fmt.Sprint(countClasses(cnt)),
			fmt.Sprint(len(msgpass.UniqueLabels(cnt))),
			fmt.Sprint(countClasses(set)),
			yesNo(csp),
			fmt.Sprint(len(msgpass.MimicsNobody(rel))),
		)
	}
	t.Note("the chain's sources are confusable under mere fairness (only the deepest node can decide); strongly-connected networks behave like Q")
	return t, nil
}

func countClasses(labels []int) int {
	seen := make(map[int]bool)
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

func mustRing(n int) *system.System {
	s, err := system.Ring(n)
	if err != nil {
		panic(err) // builder sizes are compile-time constants here
	}
	return s
}

func mustDining(n int) *system.System {
	s, err := system.Dining(n)
	if err != nil {
		panic(err) // builder sizes are compile-time constants here
	}
	return s
}
