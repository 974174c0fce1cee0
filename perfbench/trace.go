package main

// Spans of a traced run: one per cell or query, with a child around each
// public call the benchmark makes into a layer. Spans are kept in memory
// and written out once, when the run ends.

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"` // the cell or query the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer collects spans; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent can be named before it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// child records a span that ends now.
func (t *tracer) child(parent, req int64, name string, start time.Time) {
	if t == nil {
		return
	}
	t.add(t.id(), parent, req, name, start, time.Now())
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
