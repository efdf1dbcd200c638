package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// host identifies where a result was measured.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func hostStamp() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		SourceHash: sourceHash(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit is the checked-out commit when the working directory is the
// root of a git checkout, else "none" (sourceHash still identifies the
// code).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod under the working
// directory (build outputs excluded), so results from a checkout without
// git history still name the exact code they measured.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeSetups times build reps times and returns each duration in seconds
// with the last repetition's product; release, when non-nil, disposes of
// every earlier product, untimed. The collector is paused while a
// repetition runs and the previous repetition's garbage is collected
// before it starts, so set-up time counts the construction work and its
// allocations but not when the collector happened to run. setup_s is the
// median of these durations.
func timeSetups[T any](reps int, build func() (T, error), release func(T) error) (T, []float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var last T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return last, nil, err
		}
		if i < reps-1 && release != nil {
			if err := release(v); err != nil {
				return last, nil, err
			}
		}
		last = v
	}
	return last, secs, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durHist is a multiset of durations in fixed memory: a log-linear
// histogram, one bucket per nanosecond below histExact and histSub
// buckets per power of two above, each keeping its count and the sum of
// its durations. A run records millions of microsecond events without
// its memory growing with the event count, which would otherwise show in
// peak_rss_mb, and a quantile reads as the mean of the durations in its
// bucket: within 0.4% of the exact order statistic, and exact when the
// bucket holds one duration.
type durHist struct {
	counts []uint32 // allocated on first use, with sums
	sums   []time.Duration
	n      int64
	sum    time.Duration
}

const (
	histExact = 512
	histSub   = 256
	histSize  = histExact + 55*histSub
)

func histBucket(d time.Duration) int {
	if d < histExact {
		return int(max(d, 0))
	}
	e := bits.Len64(uint64(d)) - 9 // d>>e lies in [histSub, 2*histSub)
	return histExact + (e-1)*histSub + int(d>>e) - histSub
}

func (h *durHist) add(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]uint32, histSize)
		h.sums = make([]time.Duration, histSize)
	}
	b := histBucket(d)
	h.counts[b]++
	h.sums[b] += d
	h.n++
	h.sum += d
}

func (h *durHist) merge(o *durHist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint32, histSize)
		h.sums = make([]time.Duration, histSize)
	}
	for i, c := range o.counts {
		h.counts[i] += c
		h.sums[i] += o.sums[i]
	}
	h.n += o.n
	h.sum += o.sum
}

// quantileMS returns the nearest-rank q-quantile in milliseconds.
func (h *durHist) quantileMS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(1, min(int64(math.Ceil(q*float64(h.n))), h.n))
	var cum int64
	for b, c := range h.counts {
		if cum += int64(c); cum >= rank {
			return float64(h.sums[b]) / float64(c) / float64(time.Millisecond)
		}
	}
	panic("durHist: counts do not sum to n")
}

func (h *durHist) meanMS() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / float64(time.Millisecond)
}

// windowCount is how many equal slices of wall-clock time a measured run
// is split into.
const windowCount = 10

// windows keeps a timed run's latencies per slice of wall-clock time.
// Throughput and latency quantiles are reported as medians across the
// slices, so a burst of contention from outside the process that covers
// a minority of the slices does not move them.
type windows struct {
	length time.Duration
	slices [windowCount]durHist
}

func newWindows(budget time.Duration) *windows {
	return &windows{length: budget / windowCount}
}

// add records an operation of duration d that completed at offset at of
// the timed run; operations completing after the last slice are not
// counted.
func (w *windows) add(at, d time.Duration) {
	if i := int(at / w.length); i >= 0 && i < windowCount {
		w.slices[i].add(d)
	}
}

func (w *windows) merge(o *windows) {
	for i := range w.slices {
		w.slices[i].merge(&o.slices[i])
	}
}

// report sets ops_per_s and p50_ms, each the median across the slices
// of that slice's figure, and notes the whole run's p99_ms.
func (w *windows) report(o *outcome) {
	var rate, p50 []float64
	var all durHist
	for i := range w.slices {
		h := &w.slices[i]
		rate = append(rate, float64(h.n)/w.length.Seconds())
		p50 = append(p50, h.quantileMS(0.50))
		all.merge(h)
	}
	o.set("ops_per_s", median(rate), "1/s")
	o.set("p50_ms", median(p50), "ms")
	o.note("p99_ms", all.quantileMS(0.99), "ms")
}

// runtimeWindow samples the Go runtime's allocation and GC counters
// around a timed phase.
type runtimeWindow struct {
	mem     runtime.MemStats
	samples []metrics.Sample
}

var runtimeCPUMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func startRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{samples: make([]metrics.Sample, len(runtimeCPUMetrics))}
	for i, n := range runtimeCPUMetrics {
		w.samples[i].Name = n
	}
	metrics.Read(w.samples)
	runtime.ReadMemStats(&w.mem)
	return w
}

// stop reports go.allocs_per_op, go.bytes_per_op, go.gc_cycles and
// go.gc_cpu_frac for the ops completed since the window started.
func (w *runtimeWindow) stop(o *outcome, ops int64) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	after := make([]metrics.Sample, len(w.samples))
	copy(after, w.samples)
	metrics.Read(after)
	if ops < 1 {
		ops = 1
	}
	o.set("go.allocs_per_op", float64(mem.Mallocs-w.mem.Mallocs)/float64(ops), "count")
	o.set("go.bytes_per_op", float64(mem.TotalAlloc-w.mem.TotalAlloc)/float64(ops), "B")
	o.set("go.gc_cycles", float64(mem.NumGC-w.mem.NumGC), "count")
	gc := after[0].Value.Float64() - w.samples[0].Value.Float64()
	total := after[1].Value.Float64() - w.samples[1].Value.Float64()
	frac := 0.0
	if total > 0 {
		frac = gc / total
	}
	o.set("go.gc_cpu_frac", frac, "ratio")
}
