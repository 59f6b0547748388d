package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span log; spans beyond it are counted
// but not kept, so a long traced run cannot grow without limit.
const maxSpans = 1 << 20

// span is one timed call from the benchmark into the program. Calls that
// happen millions of times (notices, consumer reads) are recorded per
// chunk of calls; N is the number of records the chunk covered.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// now returns nanoseconds since the tracer's epoch (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// id reserves a span id, so a parent can be named before it ends.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent, req uint64, name string, start int64, n int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, N: n})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// end records a span with a fresh id and returns that id.
func (t *tracer) end(parent, req uint64, name string, start int64, n int) uint64 {
	if t == nil {
		return 0
	}
	id := t.id()
	t.record(id, parent, req, name, start, n)
	return id
}

// durations returns the durations in ns of every span with the given
// name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns []float64
	for _, s := range t.spans {
		if s.Name == name {
			ns = append(ns, float64(s.End-s.Start))
		}
	}
	return ns
}

// write dumps the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
