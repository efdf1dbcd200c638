package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Ring is an in-memory bounded sink retaining the most recent events in
// arrival order. It is the test-facing sink: concurrent emitters never
// lose or duplicate an event (until capacity evicts the oldest), and a
// single emitter's events always appear in its program order.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	cap   int
	head  int   // index of the oldest retained event
	total int64 // events ever emitted
}

// DefaultRingCapacity bounds a Ring constructed with capacity <= 0.
const DefaultRingCapacity = 4096

// NewRing returns a ring sink retaining up to capacity events
// (DefaultRingCapacity when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{cap: capacity}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head = (r.head + 1) % r.cap
}

// Events returns a snapshot of the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever emitted (retained or
// evicted).
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// CountByKind tallies the retained events per kind.
func (r *Ring) CountByKind() map[Kind]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Kind]int)
	for _, e := range r.buf {
		out[e.Kind]++
	}
	return out
}

// JSONL is a sink writing one JSON object per event, newline-delimited,
// to an underlying writer. Writes are serialized; the first write error
// is retained (subsequent events are dropped) and surfaced by Close.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// NewJSONL returns a JSONL sink over w. Call Close (or Flush) before
// reading what was written.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{bw: bufio.NewWriter(w)}
}

// Emit implements Sink.
func (s *JSONL) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.bw.Write(data); err != nil {
		s.err = err
		return
	}
	s.err = s.bw.WriteByte('\n')
}

// Flush flushes buffered output and returns the first error seen.
func (s *JSONL) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// Close flushes and returns the first error seen. The underlying
// writer is not closed (the sink does not own it).
func (s *JSONL) Close() error { return s.Flush() }

// ReadJSONL decodes an event stream produced by a JSONL sink. Blank
// lines are skipped; the first malformed line is an error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: jsonl scan: %w", err)
	}
	return out, nil
}

// multi fans one event out to several sinks in order.
type multi struct {
	sinks []Sink
}

// Multi returns a sink delivering every event to each of sinks in
// order. Nil sinks are skipped; zero sinks yields Discard.
func Multi(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return Discard
	case 1:
		return kept[0]
	}
	return &multi{sinks: kept}
}

// Emit implements Sink.
func (m *multi) Emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(Event)

// Emit implements Sink.
func (f FuncSink) Emit(e Event) { f(e) }
