// Command perfbench is simsym's end-to-end and per-layer benchmark. One
// invocation runs one workload for a fixed wall-clock budget, checks
// every output the program produced, and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the metrics are the end-to-end numbers a user sees:
// setup_s (the median of repeated in-process set-ups, each timed with the
// collector paused), ops_per_s and p50_ms (medians across ten equal
// slices of the run's wall clock) and peak_rss_mb. With --trace 1 the
// workload does a fixed amount of work, so its counts repeat exactly for
// one seed: once untraced, for the tracing overhead and the Go runtime
// counters, and once with spans recorded around every call into the
// program; the metrics are the per-layer numbers, and spans with their
// self times are written under .bench_build/trace/. BENCHMARK.json at
// the repository root lists the workloads and metrics and records why
// each was chosen.
//
// Inputs are a deterministic function of --seed: churn streams and
// session scripts are generated here, and the program receives only the
// generated mutations and requests. The benchmark's own tests run with
// "go test" in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one invocation's parsed flags.
type config struct {
	seed     int64
	duration time.Duration
	traceDir string
	out      io.Writer // human-readable report lines
}

// workload is one benchmark input set. measure produces the end-to-end
// metrics (no tracing); trace produces the per-layer metrics.
type workload struct {
	name    string
	measure func(config) (*outcome, error)
	trace   func(config) (*outcome, error)
}

var workloads = []workload{
	{"check-close", measureCheckClose, traceCheckClose},
	{"churn-tree", measureChurn, traceChurn},
	{"daemon-mix", measureDaemon, traceDaemon},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a workload's result: operations attempted and failed
// (a failed correctness gate counts as one failed operation), the
// reasons for every failure, and the metrics.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
	notes     map[string]metric // printed in the report, not in the result line
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]metric), notes: make(map[string]metric)}
}

func (o *outcome) set(name string, value float64, unit string) {
	o.metrics[name] = metric{Value: value, Unit: unit}
}

// note records a figure for the report only. fail_frac is one: it reads
// 0 whenever a run is correct, and the result line carries attempted and
// failed. p99_ms is another: the slowest events repeat the median event's
// work, so the p99 measures scheduling and contention from outside the
// process, and it moved by up to ±50% between runs, more than any bound
// the benchmark may set. The traced run reports each layer's p99 instead.
func (o *outcome) note(name string, value float64, unit string) {
	o.notes[name] = metric{Value: value, Unit: unit}
}

// op records one attempted operation or correctness check; a non-nil
// err counts it failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, err.Error())
		}
	}
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured wall-clock seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory for span dumps (traced runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traceDir: *traceDir,
		out:      stdout,
	}
	fmt.Fprintf(stdout, "host %s\n", mustJSON(hostStamp()))
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.name, cfg.seed, *seconds, *traced)

	var out *outcome
	var err error
	if *traced == 1 {
		out, err = w.trace(cfg)
		if err == nil {
			fillPerLayer(out)
		}
	} else {
		out, err = w.measure(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	frac := 0.0
	if out.attempted > 0 {
		frac = float64(out.failed) / float64(out.attempted)
	}
	out.note("fail_frac", frac, "ratio")
	printReport(stdout, out)
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct {
		for _, p := range out.problems {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, p)
		}
		return 1
	}
	return 0
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printReport writes every metric and report-only figure by name, with
// its unit, ahead of the result line.
func printReport(w io.Writer, o *outcome) {
	for _, set := range []struct {
		label   string
		metrics map[string]metric
	}{{"metric", o.metrics}, {"report", o.notes}} {
		names := make([]string, 0, len(set.metrics))
		for n := range set.metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set.metrics[n]
			fmt.Fprintf(w, "%s %-34s %14.6g %s\n", set.label, n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", o.attempted, o.failed)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers reach here
	}
	return string(b)
}
