package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Repeated calls of the same name under the
// same parent fold into one span: Count calls, Items units of work, Dur
// their summed duration, Start/End the first start and the last end.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer's epoch
	End    float64 `json:"end_s"`
	Dur    float64 `json:"dur_s"`
	Count  int     `json:"count"`
	Items  int64   `json:"items"`
}

// layer is the span's layer: its name up to the first '.'.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory for the traced run. A nil *tracer is the
// untraced run: every method is a no-op, so instrumented code pays one nil
// check per call.
type tracer struct {
	epoch time.Time
	run   string
	spans []span
	open  []int           // stack of open span ids
	begun []time.Time     // start time of each open span
	fold  map[foldKey]int // folds repeated calls into one span
}

type foldKey struct {
	parent int
	name   string
	run    string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), fold: make(map[foldKey]int)}
}

// setRun starts a new run id: spans opened from now on carry it.
func (t *tracer) setRun(id string) {
	if t == nil {
		return
	}
	t.run = id
}

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	k := foldKey{parent: parent, name: name, run: t.run}
	id, ok := t.fold[k]
	if !ok {
		id = len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: -1})
		t.fold[k] = id
	}
	t.open = append(t.open, id)
	t.begun = append(t.begun, time.Now())
}

// end closes the innermost open span, crediting it with items units of work.
func (t *tracer) end(items int) {
	if t == nil {
		return
	}
	now := time.Now()
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	start := t.begun[n].Sub(t.epoch).Seconds()
	if s.Start < 0 {
		s.Start = start
	}
	s.End = now.Sub(t.epoch).Seconds()
	s.Dur += now.Sub(t.begun[n]).Seconds()
	s.Count++
	s.Items += int64(items)
	t.open, t.begun = t.open[:n], t.begun[:n]
}

// selfTimes returns each span's duration minus the durations of its direct
// children, indexed by span id.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}

// spanTotals sums the duration, call count and items of every span with the
// given name, across runs.
func (t *tracer) spanTotals(name string) (dur float64, count int, items int64) {
	if t == nil {
		return 0, 0, 0
	}
	for _, s := range t.spans {
		if s.Name == name {
			dur += s.Dur
			count += s.Count
			items += s.Items
		}
	}
	return dur, count, items
}

// layerSelf returns each layer's self time summed across runs.
func (t *tracer) layerSelf() map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	self := selfTimes(t.spans)
	for i := range t.spans {
		out[t.spans[i].layer()] += self[i]
	}
	return out
}

// write stores the spans and their self times as JSON at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	type out struct {
		span
		Self float64 `json:"self_s"`
	}
	self := selfTimes(t.spans)
	recs := make([]out, len(t.spans))
	for i, s := range t.spans {
		recs[i] = out{span: s, Self: self[i]}
	}
	b, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// sortedLayers returns the map's keys in order.
func sortedLayers(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
