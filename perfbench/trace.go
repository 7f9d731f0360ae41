package main

import (
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one pipeline
// item, service job or stream session share ID; Parent is the index of
// the enclosing span in the log, -1 for a root.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the span log in memory; it is written out with the
// run's record when the benchmark ends. A nil tracer records nothing,
// so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(id, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return t.spans[i].dur()
}

// setID names the request span i belongs to once it is known.
func (t *tracer) setID(i int, id string) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].ID = id
}

// record adds a span with known bounds, for intervals the program
// timestamps itself (a service job's queue wait).
func (t *tracer) record(id, name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// selfTimes reduces the log to self time per span name: a span's
// duration minus the part of its interval its child spans cover.
// Children of one parent run sequentially in this benchmark, so their
// durations add without overlap.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] += s.dur() - child[i]
	}
	return self
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// itemSpan sums the durations of the spans named name whose ID belongs
// to a pipeline item (IDs are "<item>#<pass>").
func (t *tracer) itemSpan(item, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && strings.HasPrefix(s.ID, item+"#") {
			d += s.dur()
		}
	}
	return d
}

// selfOf is span i's duration minus its children's: for a pipeline
// item root, the part of the traced run no layer span covers.
func (t *tracer) selfOf(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.spans[i].dur()
	for _, s := range t.spans[i+1:] {
		if s.Parent == i {
			d -= s.dur()
		}
	}
	return d
}
