// Command selectd decides the selection problem for a system under a
// chosen model and, when solvable, generates the paper's SELECT program
// (Algorithm 2 in Q, Algorithm 4 in L), runs it under fair schedules,
// and reports the winner.
//
// Usage:
//
//	selectd -gen 'fig2' -instr q
//	selectd -spec sys.txt -instr l -sched fair -runs 10 -verify
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"simsym/internal/adversary"
	"simsym/internal/machine"
	"simsym/internal/mc"
	"simsym/internal/obsflag"
	"simsym/internal/sched"
	"simsym/internal/selection"
	"simsym/internal/sysdsl"
	"simsym/internal/system"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "selectd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("selectd", flag.ContinueOnError)
	spec := fs.String("spec", "", "system description file (sysdsl format, - for stdin)")
	gen := fs.String("gen", "", "generator directive, e.g. 'fig2'")
	instr := fs.String("instr", "q", "instruction set: s, l, or q")
	schedFlag := fs.String("sched", "fair", "schedule class: general, fair, or bounded")
	runs := fs.Int("runs", 5, "fair executions of the generated program")
	verify := fs.Bool("verify", false, "model-check Uniqueness and Stability over all schedules")
	maxStates := fs.Int("max-states", 300_000, "model-checker state budget")
	faults := fs.String("faults", "", "comma-separated fault classes to inject: crash, stall, lockdrop")
	seed := fs.Int64("seed", 1, "seed for the fault-injected run (schedule and fault streams)")
	replay := fs.Bool("replay", false, "replay the fault-injected run's trace and verify it is byte-identical")
	obsFlags := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := obsFlags.Recorder()
	if err != nil {
		return err
	}

	sys, err := sysdsl.Load(*spec, *gen)
	if err != nil {
		return err
	}
	is, err := system.ParseInstrSet(*instr)
	if err != nil {
		return err
	}
	sc, err := system.ParseScheduleClass(*schedFlag)
	if err != nil {
		return err
	}

	d, err := selection.DecideWith(sys, is, sc, rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "model: %v / %v\n", is, sc)
	fmt.Fprintf(out, "solvable: %v\n", d.Solvable)
	fmt.Fprintf(out, "reason: %s\n", d.Reason)
	if len(d.UniqueProcs) > 0 {
		fmt.Fprintf(out, "distinguished processors: %v\n", d.UniqueProcs)
	}
	if len(d.Elite) > 0 {
		fmt.Fprintf(out, "ELITE: %v over %d versions\n", d.Elite, d.NumVersions)
	}
	if !d.Solvable || (is != system.InstrQ && is != system.InstrL) {
		return obsFlags.Close(out)
	}

	prog, _, err := selection.SelectWith(sys, is, sc, rec)
	if err != nil {
		return err
	}
	for seed := 0; seed < *runs; seed++ {
		m, err := machine.New(sys, is, prog)
		if err != nil {
			return err
		}
		m.Observe(rec)
		rng := rand.New(rand.NewSource(int64(seed)))
		rounds := 0
		for !m.AllHalted() && rounds < 5000 {
			round, err := sched.ShuffledRounds(rng, sys.NumProcs(), 1)
			if err != nil {
				return err
			}
			if _, err := m.Run(round); err != nil {
				return err
			}
			rounds++
		}
		sel := m.SelectedProcs()
		winner := "none"
		if len(sel) == 1 {
			winner = sys.ProcIDs[sel[0]]
		} else if len(sel) > 1 {
			winner = fmt.Sprintf("VIOLATION %v", sel)
		}
		fmt.Fprintf(out, "run %d: winner %s after %d rounds\n", seed, winner, rounds)
	}

	if *faults != "" {
		// The fault run drives the SELECT program through the adversary
		// harness, reporting convergence and any invariant violation.
		h, err := adversary.NewSelectHarness(sys, is, sc,
			adversary.Shuffled(rand.New(rand.NewSource(*seed)), sys.NumProcs()))
		if err != nil {
			return err
		}
		h.Obs = rec
		err = h.RunFaulted(out, *faults, *seed, *replay, func(res *adversary.Result) string {
			if !res.Done {
				return "no convergence within budget (faults may have blocked progress)"
			}
			winner := "none"
			if sel := res.Final.SelectedProcs(); len(sel) == 1 {
				winner = sys.ProcIDs[sel[0]]
			}
			return "converged, winner " + winner
		})
		if err != nil {
			return err
		}
	}

	if *verify {
		res, err := mc.Check(func() (*machine.Machine, error) {
			return machine.New(sys, is, prog)
		}, mc.Options{
			MaxStates:  *maxStates,
			StatePreds: []mc.StatePredicate{mc.UniquenessPred},
			TransPreds: []mc.TransitionPredicate{mc.StabilityPred},
			Obs:        rec,
		})
		if err != nil {
			return errors.Join(fmt.Errorf("verify: %w", err), obsFlags.Close(out))
		}
		switch {
		case res.Violation != nil:
			fmt.Fprintf(out, "verification: VIOLATION %s (schedule %v)\n",
				res.Violation.Reason, res.Violation.Schedule)
		case !res.Complete:
			fmt.Fprintf(out, "verification: inconclusive (%s budget spent after %d states)\n",
				res.Exhausted, res.StatesExplored)
		default:
			fmt.Fprintf(out, "verification: safe over %d states\n", res.StatesExplored)
		}
	}
	return obsFlags.Close(out)
}
