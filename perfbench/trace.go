package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer records spans in memory for one goroutine; traced runs that
// load the program from several goroutines give each its own tracer and
// merge them at the end. Spans are recorded only in benchmark code,
// around calls into the program.
type tracer struct {
	epoch time.Time
	spans []span
}

// span is one timed call. Parent is the index of the enclosing span in
// the same tracer (-1 for a root); ID groups the spans of one request,
// session or check.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, parent int, id int64) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, ID: id})
	return len(t.spans) - 1
}

// end closes the span.
func (t *tracer) end(h int) { t.spans[h].End = int64(time.Since(t.epoch)) }

// add records an already-timed span.
func (t *tracer) add(name string, parent int, id int64, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, ID: id})
}

// durations returns the durations of every span with this name.
func (t *tracer) durations(name string) *durHist {
	h := &durHist{}
	for _, s := range t.spans {
		if s.Name == name {
			h.add(time.Duration(s.End - s.Start))
		}
	}
	return h
}

// merge appends other's spans, re-basing their parent indexes.
func (t *tracer) merge(other *tracer) {
	off := len(t.spans)
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus the time its children cover; children run inside their
// parent on the parent's goroutine, one after another, so the covered
// time is the sum of the children's durations.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summarize() []spanSummary {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*spanSummary)
	for i, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.End - s.Start
		sum.Count++
		sum.TotalMS += float64(d) / 1e6
		sum.SelfMS += float64(d-covered[i]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// report prints the self-time table and writes every span, one JSON
// object per line after a header line, to dir/<workload>-seed<n>.jsonl.
func (t *tracer) report(cfg config, workload string) error {
	sums := t.summarize()
	for _, s := range sums {
		fmt.Fprintf(cfg.out, "span %-28s count %8d total_ms %12.3f self_ms %12.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := writeSpans(f, workload, cfg.seed, sums, t.spans); err != nil {
		f.Close()
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	fmt.Fprintf(cfg.out, "trace %d spans written to %s\n", len(t.spans), path)
	return nil
}

func writeSpans(w io.Writer, workload string, seed int64, sums []spanSummary, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	header := map[string]any{"workload": workload, "seed": seed, "host": hostStamp(), "self_time": sums}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// overhead reports how much slower the traced pass ran than the untraced
// pass over the same work, as a fraction of the untraced time.
func overhead(o *outcome, untraced, traced time.Duration) {
	frac := 0.0
	if untraced > 0 {
		frac = float64(traced-untraced) / float64(untraced)
	}
	o.set("trace.overhead_frac", frac, "ratio")
}
