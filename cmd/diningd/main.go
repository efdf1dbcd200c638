// Command diningd demonstrates the paper's Dining Philosophers results:
// the deterministic DP deadlock on the Figure 4 table, the DP' solution
// on the Figure 5 flipped table, and the Lehmann–Rabin randomized
// fallback that works even at prime table sizes.
//
// Usage:
//
//	diningd -n 5                  # Figure 4: watch the deadlock
//	diningd -n 6 -flipped -check  # Figure 5: model-checked solution
//	diningd -n 5 -random          # Lehmann–Rabin randomized run
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"simsym/internal/adversary"
	"simsym/internal/dining"
	"simsym/internal/mc"
	"simsym/internal/obsflag"
	"simsym/internal/randomized"
	"simsym/internal/system"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "diningd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diningd", flag.ContinueOnError)
	n := fs.Int("n", 5, "number of philosophers")
	flipped := fs.Bool("flipped", false, "use the Figure 5 alternating table")
	meals := fs.Int("meals", 3, "meals per philosopher")
	rounds := fs.Int("rounds", 500, "round-robin rounds to run")
	check := fs.Bool("check", false, "model-check exclusion and deadlock")
	maxStates := fs.Int("max-states", 100_000, "model-checker state budget")
	random := fs.Bool("random", false, "run the Lehmann-Rabin randomized algorithm instead")
	seed := fs.Int64("seed", 1, "random seed")
	faults := fs.String("faults", "", "comma-separated fault classes to inject: crash, stall, lockdrop")
	replay := fs.Bool("replay", false, "replay the fault-injected run's trace and verify it is byte-identical")
	obsFlags := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := obsFlags.Recorder()
	if err != nil {
		return err
	}

	if *random {
		rng := rand.New(rand.NewSource(*seed))
		res, err := randomized.LehmannRabin(rng, *n, *rounds*(*n)*4)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Lehmann-Rabin on %d philosophers, %d steps:\n", *n, res.Steps)
		for p, m := range res.Meals {
			fmt.Fprintf(out, "  philosopher %d ate %d times\n", p, m)
		}
		return obsFlags.Close(out)
	}

	var sys *system.System
	if *flipped {
		sys, err = system.DiningFlipped(*n)
	} else {
		sys, err = system.Dining(*n)
	}
	if err != nil {
		return err
	}
	prog, err := dining.Program("left", "right", *meals)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "table: %d philosophers (flipped=%v), program: lock left, lock right, eat\n", *n, *flipped)

	oneMeal, err := dining.Program("left", "right", 1)
	if err != nil {
		return err
	}
	round, deadlocked, err := dining.FindDeadlockRoundRobin(sys, oneMeal, 300)
	if err != nil {
		return err
	}
	if deadlocked {
		fmt.Fprintf(out, "round-robin: DEADLOCK after round %d (every philosopher holds one fork)\n", round)
	} else {
		got, err := dining.RunFair(sys, prog, *rounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "round-robin meals: %v\n", got)
	}

	if *faults != "" {
		// Crashes and stalls must never break exclusion (they only cost
		// progress), while lock-drop attacks the locking assumption
		// itself and may surface a replayable exclusion violation.
		h, err := adversary.NewDiningHarness(sys, *meals,
			adversary.Shuffled(rand.New(rand.NewSource(*seed)), sys.NumProcs()))
		if err != nil {
			return err
		}
		h.MaxSlots = 20000
		h.Obs = rec
		err = h.RunFaulted(out, *faults, *seed, *replay, func(res *adversary.Result) string {
			return fmt.Sprintf("exclusion held, meals %v", dining.Meals(res.Final))
		})
		if err != nil {
			return err
		}
	}

	if *check {
		rep, err := dining.CheckWith(sys, oneMeal, mc.Options{MaxStates: *maxStates, Obs: rec})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "model check over %d states (complete=%v):\n", rep.StatesExplored, rep.Complete)
		if rep.ExclusionViolated != nil {
			fmt.Fprintf(out, "  exclusion VIOLATED, schedule %v\n", rep.ExclusionViolated)
		} else {
			fmt.Fprintln(out, "  exclusion holds")
		}
		if rep.Deadlocked != nil {
			fmt.Fprintf(out, "  deadlock reachable, schedule %v\n", rep.Deadlocked)
		} else {
			fmt.Fprintln(out, "  no deadlock found")
		}
	}
	return obsFlags.Close(out)
}
