package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic cumulative counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored:
// counters are monotonic by contract).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts samples with d < 2^i nanoseconds (the last bucket is +Inf), so
// the range spans 1ns to ~34s with no configuration.
const histBuckets = 36

// Histogram is a fixed-shape latency histogram over power-of-two
// nanosecond buckets. The zero value is ready to use; all methods are
// safe for concurrent use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns)) // smallest i with ns < 2^i
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Registry holds named counters and histograms. The zero value is not
// usable; construct with NewRegistry. Lookup interns on first use, so
// call sites never pre-register.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	histos map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		histos: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (g *Registry) Counter(name string) *Counter {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.counts[name]
	if !ok {
		c = &Counter{}
		g.counts[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (g *Registry) Histogram(name string) *Histogram {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.histos[name]
	if !ok {
		h = &Histogram{}
		g.histos[name] = h
	}
	return h
}

// sanitizeMetricName maps registry names onto the Prometheus metric
// grammar: dots and dashes become underscores, anything else
// non-alphanumeric is dropped.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r == '.', r == '-', r == '/':
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteText renders every metric in Prometheus text exposition format,
// sorted by name for deterministic output: counters as
// simsym_<name>_total, histograms as cumulative _bucket series plus
// _sum and _count. This is what the daemons' -metrics flag prints and
// what their /metrics endpoint serves.
func (g *Registry) WriteText(w io.Writer) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	counterNames := make([]string, 0, len(g.counts))
	for name := range g.counts {
		counterNames = append(counterNames, name)
	}
	histoNames := make([]string, 0, len(g.histos))
	for name := range g.histos {
		histoNames = append(histoNames, name)
	}
	counters := make(map[string]*Counter, len(g.counts))
	for name, c := range g.counts {
		counters[name] = c
	}
	histos := make(map[string]*Histogram, len(g.histos))
	for name, h := range g.histos {
		histos[name] = h
	}
	g.mu.Unlock()

	sort.Strings(counterNames)
	sort.Strings(histoNames)
	for _, name := range counterNames {
		metric := "simsym_" + sanitizeMetricName(name) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", metric, metric, counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range histoNames {
		h := histos[name]
		metric := "simsym_" + sanitizeMetricName(name) + "_seconds"
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", metric); err != nil {
			return err
		}
		var cum int64
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			cum += n
			if n == 0 && i < histBuckets-1 {
				continue // elide empty interior buckets; the series stays cumulative
			}
			le := "+Inf"
			if i < histBuckets-1 {
				le = fmt.Sprintf("%g", float64(int64(1)<<uint(i))/1e9)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", metric, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", metric, h.Sum().Seconds(), metric, h.Count()); err != nil {
			return err
		}
	}
	return nil
}
