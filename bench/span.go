package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside product code are a later change, which must
// reproduce these names). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a root
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Run    string `json:"run"` // the staged variant the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the workload ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, run, name, detail string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Detail: detail, Run: run, Start: now})
	return id
}

// end closes a span and returns how long it was open.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return t.spans[id].dur()
}

// do times f as one span.
func (t *tracer) do(parent int, run, name string, f func()) time.Duration {
	id := t.begin(parent, run, name, "")
	f()
	return t.end(id)
}

// durs returns, in the given unit, the durations of the spans of one run
// with the given name (and detail, unless it is "*").
func (t *tracer) durs(run, name, detail string, unit func(time.Duration) float64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Run == run && s.Name == name && (detail == "*" || s.Detail == detail) {
			out = append(out, unit(s.dur()))
		}
	}
	return out
}

// self returns a span's self time: its duration minus the part of that
// interval its child spans cover (children may overlap one another when
// they ran on different goroutines).
func (t *tracer) self(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[id]
	var kids []span
	for _, s := range t.spans {
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, upTo := int64(0), p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, upTo), min(k.End, p.End)
		if hi > lo {
			covered += hi - lo
			upTo = hi
		}
	}
	return p.dur() - time.Duration(covered)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
