package main

// Spans recorded by the benchmark around its own calls into each layer.
// They stay in memory and are written out once the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans when on; the zero value records nothing, so
// every call site runs the same code in both kinds of run.
type tracer struct {
	on    bool
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// begin opens a span and returns its ID and start time.
func (t *tracer) begin() (int64, time.Time) {
	if !t.on {
		return 0, time.Now()
	}
	return t.ids.Add(1), time.Now()
}

// end closes the span begun at t0 and returns its duration.
func (t *tracer) end(id, parent int64, name string, t0 time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(t0)
	if t.on {
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
			Start: t0.Sub(t.base).Nanoseconds(), End: now.Sub(t.base).Nanoseconds()})
		t.mu.Unlock()
	}
	return d
}

// do runs fn inside a span and returns its duration.
func (t *tracer) do(name string, parent int64, fn func()) time.Duration {
	id, t0 := t.begin()
	fn()
	return t.end(id, parent, name, t0)
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span name, the total time spans spent outside
// their children.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// write stores the spans and the run's layer metrics as one JSON file.
func (t *tracer) write(path string, layers map[string]float64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	self := map[string]float64{}
	for name, d := range t.selfTimes() {
		self[name] = ms(d)
	}
	body, err := json.Marshal(map[string]any{"layers": layers, "self_ms": self, "spans": spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
