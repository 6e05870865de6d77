package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one traced interval. Spans come only from the benchmark's own
// code: study and job boundaries, the progress hooks the flow exposes,
// probe calls and HTTP calls. Nothing is traced inside the flow itself.
//
// Evaluations are too many to keep one by one (an equation sweep makes
// ~80k per pass), and the progress hook does not say which design point
// ran one. A design point's span carries its evaluation count as its
// point_done event reported it (Evals); the study's span carries the
// summed duration of all its evaluations (EvalTime).
type Span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Layer    string        `json:"layer"`
	Owner    string        `json:"owner,omitempty"` // study or job id
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Evals    int           `json:"evals,omitempty"`
	EvalTime time.Duration `json:"eval_ns,omitempty"`
}

// Tracer records spans in memory. The zero value (and a nil *Tracer)
// records nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// On reports whether spans are being recorded.
func (t *Tracer) On() bool { return t != nil }

// Since converts a wall-clock instant to trace time.
func (t *Tracer) Since(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch)
}

// Add records a span and returns its id (0 when tracing is off).
func (t *Tracer) Add(s Span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// AddAt records a span over the wall-clock interval [start, end].
func (t *Tracer) AddAt(parent int, name, layer, owner string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.Add(Span{Parent: parent, Name: name, Layer: layer, Owner: owner,
		Start: t.Since(start), End: t.Since(end)})
}

// Close sets the end of a span recorded open.
func (t *Tracer) Close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.Since(end)
	t.mu.Unlock()
}

// AddTree records spans that carry local ids 1..n (parents refer to
// those ids or are 0), renumbering them into the trace.
func (t *Tracer) AddTree(spans []Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time: for every span, its duration
// minus the part covered by the union of its children's intervals
// (clipped to the span). Children may overlap one another — design
// points run on several workers — so the union, not the sum, is what
// the parent did not do itself. A span's EvalTime is evaluation time
// spent inside its design points, which nothing traces one by one: it
// moves from synth self time to hybrid self time. Without a per-point
// attribution the moved time is not clamped to any one design point.
func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
		if s.EvalTime != 0 {
			out["synth"] -= s.EvalTime
			out["hybrid"] += s.EvalTime
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}
