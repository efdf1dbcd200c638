package experiments

import (
	"fmt"
	"math/rand"

	"simsym/internal/adversary"
	"simsym/internal/core"
	"simsym/internal/csp"
	"simsym/internal/dining"
	"simsym/internal/distlabel"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/sched"
	"simsym/internal/system"
)

// E13Encapsulated reproduces section 8's "Encapsulating Asymmetry": the
// Chandy–Misra protocol with the acyclic orientation folded into the
// initial state solves dining on the very five-table DP forbids for
// symmetric initial states.
func E13Encapsulated() (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "Section 8 — encapsulating asymmetry (Chandy–Misra [CM84])",
		Header: []string{"property", "value"},
	}
	const n = 5
	s, err := dining.OrientedTable(n, dining.SingleFlipOrientation(n))
	if err != nil {
		return nil, err
	}
	lab, err := core.Similarity(s, core.RuleQ)
	if err != nil {
		return nil, err
	}
	pairs, err := dining.Adjacency(s)
	if err != nil {
		return nil, err
	}
	adjacentSimilar := 0
	for _, pr := range pairs {
		if lab.SameClass(pr[0], pr[1]) {
			adjacentSimilar++
		}
	}
	t.AddRow("adjacent similar pairs (oriented init)", fmt.Sprint(adjacentSimilar))
	t.AddRow("processor classes", fmt.Sprint(lab.NumProcClasses()))

	// Cyclic orientations are rejected: the asymmetry must be acyclic.
	if _, err := dining.OrientedTable(n, make([]bool, n)); err == nil {
		return nil, fmt.Errorf("cyclic orientation unexpectedly accepted")
	}
	t.AddRow("cyclic orientation accepted", "no (precondition enforced)")

	const meals = 3
	prog, err := dining.ChandyMisraProgram(meals)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(s, system.InstrL, prog)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	rounds := 0
	done := func() bool {
		for p := 0; p < n; p++ {
			v, _ := m.Local(p, "meals")
			if ml, ok := v.(int); !ok || ml < meals {
				return false
			}
		}
		return true
	}
	for ; rounds < 20_000 && !done(); rounds++ {
		round, err := sched.ShuffledRounds(rng, n, 1)
		if err != nil {
			return nil, err
		}
		if _, err := m.Run(round); err != nil {
			return nil, err
		}
	}
	t.AddRow(fmt.Sprintf("all %d philosophers ate %d meals", n, meals),
		fmt.Sprintf("%s (after %d fair rounds)", yesNo(done()), rounds))

	// Bounded model check of the same protocol: no exclusion violation
	// and no deadlock anywhere in the explored prefix of the schedule
	// tree — safety evidence beyond the single fair execution above.
	mcProg, err := dining.ChandyMisraProgram(1)
	if err != nil {
		return nil, err
	}
	rep, err := dining.CheckWith(s, mcProg, mc.Options{
		MaxStates: 10_000,
		Progress:  MCProgress,
		Obs:       Obs,
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("bounded model check (1 meal): exclusion violated / deadlock found",
		fmt.Sprintf("%s / %s (%d states, complete=%v)",
			yesNo(rep.ExclusionViolated != nil), yesNo(rep.Deadlocked != nil),
			rep.StatesExplored, rep.Complete))

	// Fault sweep over the Chandy–Misra protocol: crash-stop and stall
	// faults must leave exclusion intact (they can only starve the
	// crashed philosopher's neighbors), checked after every step by the
	// streaming adversary harness.
	fprog, err := dining.ChandyMisraProgram(2)
	if err != nil {
		return nil, err
	}
	excl, err := dining.ExclusionPred(s, fprog)
	if err != nil {
		return nil, err
	}
	for _, fc := range []struct {
		name string
		spec adversary.Spec
	}{
		{"crash", adversary.Spec{CrashRate: 0.005, MaxCrashes: 1, CrashSeed: 13}},
		{"stall", adversary.Spec{StallRate: 0.05, StallLen: 9, StallSeed: 13}},
	} {
		h := &adversary.Harness{
			Sys:        s,
			Instr:      system.InstrL,
			Prog:       fprog,
			Sched:      adversary.Shuffled(rand.New(rand.NewSource(13)), n),
			Faults:     adversary.NewFaults(fc.spec, n, s.NumVars()),
			MaxSlots:   20_000,
			StatePreds: []mc.StatePredicate{excl},
		}
		res, err := h.Run()
		if err != nil {
			return nil, err
		}
		verdict := "held"
		if res.Violation != nil {
			verdict = fmt.Sprintf("VIOLATED: %s (%d-slot replayable trace)",
				res.Violation.Reason, len(res.Schedule))
		}
		t.AddRow("fault sweep (CM, 2 meals): "+fc.name,
			fmt.Sprintf("exclusion %s; steps=%d fault events=%d", verdict, res.Steps, len(res.FaultLog)))
	}
	t.Note("the program is uniform and processors anonymous; the asymmetry lives entirely in the dirty-fork orientation of the initial state, as [CM84] prescribes")
	return t, nil
}

// E14CSP reproduces the section 6 CSP results through the channel-shaped
// translation: extended CSP behaves like L (rendezvous race = lock race),
// anonymous rings stay anonymous, marked rings elect.
func E14CSP() (*Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  "Section 6 — CSP: extended CSP is to async as L is to Q",
		Header: []string{"network", "transfer condition", "electable (ext CSP)"},
	}
	pair := csp.PairNet()
	ring4, err := csp.RingNet(4)
	if err != nil {
		return nil, err
	}
	marked, err := csp.RingNet(5)
	if err != nil {
		return nil, err
	}
	marked.Init[2] = "leader"
	for _, e := range []struct {
		name string
		net  *csp.Net
	}{
		{"pair (Fig1 as CSP)", pair},
		{"anonymous ring(4)", ring4},
		{"marked ring(5)", marked},
	} {
		cond, err := csp.TransferCondition(e.net)
		if err != nil {
			return nil, err
		}
		d, err := csp.DecideExtended(e.net)
		if err != nil {
			return nil, err
		}
		t.AddRow(e.name, yesNo(cond), yesNo(d.Solvable))
	}
	t.Note("the pair fails the transfer condition (its endpoints are similar) yet elects via the rendezvous race — exactly Figure 1's L/Q story; plain CSP (no output guards) ships as a documented limitation")
	return t, nil
}

// E15AlgorithmS reproduces the section 6 remark that the S instruction
// set has its own label-learning algorithm: Algorithm 2-S (set alibis,
// perpetual refresh) lets every processor of Figure 3 learn its label
// using only read and write.
func E15AlgorithmS(seeds int) (*Table, error) {
	t := &Table{
		ID:     "E15",
		Title:  "Section 6 — Algorithm 2-S: label learning with read/write only",
		Header: []string{"seed", "rounds to all-done", "labels correct"},
	}
	s := system.Fig3()
	lab, err := core.Similarity(s, core.RuleSetS)
	if err != nil {
		return nil, err
	}
	topo, err := distlabel.TopologyFromSystem(s, lab)
	if err != nil {
		return nil, err
	}
	prog, err := distlabel.Algorithm2S(topo, distlabel.Options{})
	if err != nil {
		return nil, err
	}
	for seed := 0; seed < seeds; seed++ {
		m, err := machine.New(s, system.InstrS, prog)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		rounds := 0
		allDone := func() bool {
			for p := 0; p < s.NumProcs(); p++ {
				if d, ok := m.Local(p, "done"); !ok || d != true {
					return false
				}
			}
			return true
		}
		for ; rounds < 3000 && !allDone(); rounds++ {
			round, err := sched.ShuffledRounds(rng, s.NumProcs(), 1)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(round); err != nil {
				return nil, err
			}
		}
		correct := allDone()
		for p := 0; p < s.NumProcs() && correct; p++ {
			v, ok := m.Local(p, "label1")
			if !ok || v.(int) != lab.ProcLabels[p] {
				correct = false
			}
		}
		t.AddRow(fmt.Sprint(seed), fmt.Sprint(rounds), yesNo(correct))
	}
	t.Note("the relay chain drives convergence: p resolves structurally, z resolves from p's writes, q resolves from z's — with posts surviving only until overwritten")
	return t, nil
}
