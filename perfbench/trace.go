package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "no span" (a root's parent, or
// anything recorded while tracing is off).
type spanID int32

// span is one timed call the benchmark made into a layer of the
// engine. Name is "<module>.<step>"; spans of one request share Req.
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced path pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent spanID, reqID int64) spanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: reqID, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f, records it as a span when tracing is on, and returns its
// duration in milliseconds either way.
func (t *tracer) do(name string, parent spanID, reqID int64, f func()) float64 {
	id := t.begin(name, parent, reqID)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return float64(d.Nanoseconds()) / 1e6
}

// selfTimes returns each layer's self time in milliseconds: a span's
// duration minus the union of its children's intervals, summed by the
// layer prefix of the span name.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[spanID][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the spans' intervals; the two
// serving clients' request spans overlap in time.
func covered(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, curS, curE int64
	open := false
	for _, s := range ss {
		switch {
		case !open:
			curS, curE, open = s.Start, s.End, true
		case s.Start > curE:
			total += curE - curS
			curS, curE = s.Start, s.End
		case s.End > curE:
			curE = s.End
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write saves the spans and the per-layer self times as one JSON file.
func (t *tracer) write(path string, self map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{self, t.spans})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace write: %w", err)
	}
	return nil
}
