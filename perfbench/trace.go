package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program, or an
// interval a layer reported back through a public callback.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Run    string    `json:"run"`
	Layer  string    `json:"layer"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps the spans of one traced run in memory. A nil tracer is
// the untraced run: every method is a no-op returning span id 0.
type tracer struct {
	run   string
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(layer, name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Layer: layer, Name: name, Start: time.Now()})
	return len(t.spans)
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-finished interval, such as one a layer reported
// through its progress callbacks or its own trace tree.
func (t *tracer) add(layer, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Layer: layer, Name: name, Start: start, End: end})
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums each layer's self time in seconds: a span's duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		out[s.Layer] += (s.End.Sub(s.Start) - covered(s, children[s.ID])).Seconds()
	}
	return out
}

// covered measures the union of the children's intervals, clipped to the
// parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if b.IsZero() {
			continue
		}
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSpans writes the spans and the per-layer self times as one JSON
// document.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(map[string]any{
		"spans":        spans,
		"self_seconds": selfTimes(spans),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
