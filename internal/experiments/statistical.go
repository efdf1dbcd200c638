package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"simsym/internal/adversary"
	"simsym/internal/dining"
	"simsym/internal/mc"
	"simsym/internal/randomized"
	"simsym/internal/system"
)

// E16Statistical exercises the statistical model checker at scales the
// exhaustive engine cannot touch: Itai–Rodeh leader election and the
// lock-stepped dining table at n=64 and n=256. Each row is an estimated
// violation probability with its Okamoto-bound confidence interval at
// 95% confidence and half-width epsilon — the EXPERIMENTS.md tables use
// ε=0.05, so every estimate rests on exactly OkamotoBound(0.05, 0.05) =
// 738 i.i.d. seeded trials and is reproducible byte for byte.
//
//   - Itai–Rodeh rows estimate P(no leader within 4 phases) over a
//     2-value id space — the tie probability the paper's section 8
//     "probability 1" claim is about. Larger rings need more phases, so
//     the estimate grows with n.
//   - Lehmann–Rabin rows estimate P(some philosopher never eats within
//     24n steps) — the finite-horizon shadow of [LR80]'s lockout-freedom
//     claim. The rate falls to 0 as the budget grows, but at a fixed
//     per-philosopher budget it rises with n: more philosophers, more
//     chances the uniform scheduler shortchanges one.
//   - Dining rows estimate P(exclusion breach within 2048 slots) under
//     seeded lock-drop faults: a dropped fork can be re-grabbed while
//     its holder eats, so the rate is driven by the fault spec, not the
//     (safe) lock discipline.
func E16Statistical(eps float64) (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "Statistical checking — sampled violation probabilities with Hoeffding CIs",
		Header: []string{"experiment", "n", "samples", "violations", "estimate", "CI half-width"},
	}
	const delta = 0.05

	addRow := func(name string, n int, res *mc.SampleResult) {
		t.AddRow(name, fmt.Sprint(n), fmt.Sprint(res.Samples), fmt.Sprint(res.Violations),
			fmt.Sprintf("%.4f", res.Estimate), fmt.Sprintf("±%.4f", res.HalfWidth))
	}

	for _, n := range []int{64, 256} {
		n := n
		trial := func(seed int64, depth int, capture bool) (mc.Trial, error) {
			rng := rand.New(rand.NewSource(seed))
			res, err := randomized.ItaiRodeh(rng, n, 2, depth)
			if err != nil {
				if errors.Is(err, randomized.ErrNoConvergence) {
					return mc.Trial{Violated: true, Reason: err.Error(),
						Steps: res.Messages, Slots: res.Phases}, nil
				}
				return mc.Trial{}, err
			}
			return mc.Trial{Steps: res.Messages, Slots: res.Phases}, nil
		}
		res, err := mc.Sample(trial, mc.SampleOptions{
			Epsilon: eps, Delta: delta, Depth: 4, Seed: 16, Workers: 4,
		})
		if err != nil {
			return nil, err
		}
		addRow("Itai–Rodeh: no leader within 4 phases (idSpace 2)", n, res)
	}

	for _, n := range []int{64, 256} {
		n := n
		trial := func(seed int64, depth int, capture bool) (mc.Trial, error) {
			rng := rand.New(rand.NewSource(seed))
			res, err := randomized.LehmannRabin(rng, n, depth)
			if err != nil {
				return mc.Trial{}, err
			}
			out := mc.Trial{Steps: res.Steps, Slots: res.Steps}
			for _, m := range res.Meals {
				if m == 0 {
					out.Violated = true
					out.Reason = "a philosopher never ate"
					break
				}
			}
			return out, nil
		}
		res, err := mc.Sample(trial, mc.SampleOptions{
			Epsilon: eps, Delta: delta, Depth: 24 * n, Seed: 16, Workers: 4,
		})
		if err != nil {
			return nil, err
		}
		addRow("Lehmann–Rabin: lockout within 24n steps", n, res)
	}

	prog, err := dining.Program("left", "right", 2)
	if err != nil {
		return nil, err
	}
	for _, n := range []int{64, 256} {
		sys, err := system.Dining(n)
		if err != nil {
			return nil, err
		}
		excl, err := dining.LocalExclusionPred(sys, prog)
		if err != nil {
			return nil, err
		}
		spec, err := adversary.ParseSpec("lockdrop", 0)
		if err != nil {
			return nil, err
		}
		procs, vars := sys.NumProcs(), sys.NumVars()
		trial := func(seed int64, depth int, capture bool) (mc.Trial, error) {
			rng := rand.New(rand.NewSource(seed))
			h := adversary.Harness{
				Sys:       sys,
				Instr:     system.InstrL,
				Prog:      prog,
				Sched:     adversary.Uniform(rng, procs),
				Faults:    adversary.NewFaults(spec.Seeded(seed), procs, vars),
				MaxSlots:  depth,
				ProcPreds: []mc.ProcPredicate{excl},
			}
			r, err := h.Run()
			if err != nil {
				return mc.Trial{}, err
			}
			out := mc.Trial{Steps: r.Steps, Slots: r.Slots}
			if r.Violation != nil {
				out.Violated = true
				out.Reason = r.Violation.Reason
			}
			if capture {
				out.Schedule = r.Schedule
			}
			return out, nil
		}
		res, err := mc.Sample(trial, mc.SampleOptions{
			Epsilon: eps, Delta: delta, Depth: 2048, Seed: 16, Workers: 4,
		})
		if err != nil {
			return nil, err
		}
		addRow("dining (VM, L): exclusion breach under lock-drops", n, res)
	}
	t.Note("each estimate is within its half-width of the true probability with confidence 95%% (Okamoto bound: %d trials); same seed reproduces identical rows at any worker count", mc.OkamotoBound(eps, delta))
	return t, nil
}
