package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the index of the enclosing span, -1 for an op's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its index.
func (t *tracer) start(name string, parent, op int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes the span opened by start.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// hook adapts the tracer to core.Config.Span: engine phases become children
// of parent, named by engineSpanNames.
func (t *tracer) hook(parent, op int) func(string) func() {
	return func(name string) func() {
		if n, ok := engineSpanNames[name]; ok {
			name = n
		}
		id := t.start(name, parent, op)
		return func() { t.end(id) }
	}
}

// engineSpanNames maps the phase names core.Config.Span reports to the
// layer-qualified span names of the benchmark.
var engineSpanNames = map[string]string{
	"label-matrix":    "label.matrix",
	"agreement-cache": "core.agreement_cache",
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		self := s.End - s.Start - covered(children[i], s.Start, s.End)
		out[s.Name] += float64(self) / 1e9
	}
	return out
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerShare returns the fraction of the ops' time whose self time falls in
// spans of the given layers (name prefixes before the first dot).
func layerShare(self map[string]float64, opTotal float64, layers ...string) float64 {
	if opTotal <= 0 {
		return 0
	}
	var sum float64
	for name, v := range self {
		layer, _, _ := strings.Cut(name, ".")
		for _, l := range layers {
			if layer == l {
				sum += v
			}
		}
	}
	return sum / opTotal
}

// write stores the spans and the environment as JSON.
func (t *tracer) write(path string, e *env) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Env   *env   `json:"env"`
		Spans []span `json:"spans"`
	}{e, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rootTotal sums the durations of the ops' root spans.
func (t *tracer) rootTotal() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if s.Parent < 0 {
			sum += float64(s.End-s.Start) / 1e9
		}
	}
	return sum
}
