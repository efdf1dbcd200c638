// Command simlabel computes the similarity labeling of a system and, for
// small systems, its automorphism orbits.
//
// Usage:
//
//	simlabel -gen 'ring 5'
//	simlabel -spec table.sys -rule set -dot out.dot
//	simlabel -gen 'ring 1000' -churn 5000 -seed 7
//
// The system comes from -spec (a sysdsl file, "-" for stdin) or -gen (a
// generator directive). -rule picks the environment rule: "q" (counting,
// instruction set Q) or "set" (instruction set S). -dot writes a Graphviz
// rendering.
//
// -churn N drives N seeded topology mutation events (join, leave, crash,
// restart, rewire) through the incremental relabeling engine instead of
// labeling once, reporting events/sec, a per-event latency histogram,
// and split/merge totals. -churn-min and -churn-max bound the population
// during churn.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"simsym/internal/adversary"
	"simsym/internal/autgrp"
	"simsym/internal/core"
	"simsym/internal/sysdsl"
	"simsym/internal/system"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simlabel:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simlabel", flag.ContinueOnError)
	spec := fs.String("spec", "", "system description file (sysdsl format, - for stdin)")
	gen := fs.String("gen", "", "generator directive, e.g. 'ring 5' or 'dining 5'")
	rule := fs.String("rule", "q", "environment rule: q (counting) or set (S-style)")
	dotOut := fs.String("dot", "", "write Graphviz DOT to this file")
	orbits := fs.Bool("orbits", true, "also compute automorphism orbits")
	churn := fs.Int("churn", 0, "drive this many seeded topology mutation events through the incremental engine")
	churnMin := fs.Int("churn-min", 0, "population floor during churn (0 = generator default)")
	churnMax := fs.Int("churn-max", 0, "population ceiling during churn (0 = unbounded)")
	seed := fs.Int64("seed", 1, "churn stream seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sys, err := sysdsl.Load(*spec, *gen)
	if err != nil {
		return err
	}
	var r core.Rule
	switch *rule {
	case "q":
		r = core.RuleQ
	case "set":
		r = core.RuleSetS
	default:
		return fmt.Errorf("unknown rule %q (want q or set)", *rule)
	}

	fmt.Fprintf(out, "system: %d processors, %d variables, names %v\n",
		sys.NumProcs(), sys.NumVars(), sys.Names)
	if *churn > 0 {
		return runChurn(out, sys, r, *churn, adversary.ChurnOpts{MinProcs: *churnMin, MaxProcs: *churnMax}, *seed)
	}
	lab, err := core.Similarity(sys, r)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "similarity labeling (%s rule): %s\n", r, lab)
	fmt.Fprintf(out, "uniquely labeled processors: %v\n", lab.UniqueProcs())
	fmt.Fprintf(out, "every processor paired: %v\n", lab.EveryProcPaired())

	if *orbits {
		o, err := autgrp.Compute(sys)
		if err != nil {
			fmt.Fprintf(out, "orbits: skipped (%v)\n", err)
		} else {
			fmt.Fprintf(out, "|Aut| = %d, processor orbits %v, variable orbits %v\n",
				o.GroupOrder, o.ProcClasses(), o.VarClasses())
			fmt.Fprintf(out, "orbits refine similarity (Theorem 10): %v\n", o.RefinesSimilarity(lab))
		}
	}
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(sysdsl.DOT(sys, "system")), 0o644); err != nil {
			return fmt.Errorf("writing DOT: %w", err)
		}
		fmt.Fprintf(out, "wrote %s\n", *dotOut)
	}
	return nil
}

// runChurn drives a seeded mutation stream through the dynamic engine
// and prints throughput, a per-event latency histogram, and the
// accumulated split/merge work profile.
func runChurn(out io.Writer, sys *system.System, r core.Rule, events int, opts adversary.ChurnOpts, seed int64) error {
	d, err := core.NewDynSystem(sys, r, core.Config{})
	if err != nil {
		return err
	}
	ch := adversary.NewChurn(rand.New(rand.NewSource(seed)), d, opts)
	lat := make([]time.Duration, 0, events)
	kinds := map[string]int{}
	start := time.Now()
	for ev := 0; ev < events; ev++ {
		t0 := time.Now()
		kind, _, err := ch.Step()
		if err != nil {
			return fmt.Errorf("churn event %d: %w", ev, err)
		}
		lat = append(lat, time.Since(t0))
		kinds[kind]++
	}
	elapsed := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	fmt.Fprintf(out, "churn: %d events in %v (%.0f events/sec), seed %d\n",
		events, elapsed.Round(time.Millisecond), float64(events)/elapsed.Seconds(), seed)
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-8s %d\n", k, kinds[k])
	}
	fmt.Fprintf(out, "latency: p50 %v  p90 %v  p99 %v  max %v\n",
		pct(0.50), pct(0.90), pct(0.99), lat[len(lat)-1])
	tot := d.TotalStats()
	fmt.Fprintf(out, "relabel work: %d splits, %d merges, %d slots relabeled, %d signature computes\n",
		tot.Splits, tot.Merges, tot.Relabeled, tot.SigComputes)
	fmt.Fprintf(out, "final: %d processors, %d variables, %d classes\n",
		d.NumProcs(), d.NumVars(), d.NumClasses())
	return nil
}
