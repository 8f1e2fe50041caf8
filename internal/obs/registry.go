// Package obs is SimdHT-Bench's zero-dependency observability layer: a
// metrics registry (counters, gauges, fixed-bucket histograms with labeled
// series) and a span/event tracer whose timestamps are virtual time —
// engine cycles for the microbenchmark path, DES seconds for the KVS path.
// Because every timestamp is simulated, all rendered artifacts (text,
// CSV, Chrome trace JSON) are bit-identical across runs and across sweep
// worker counts, and can be golden-tested like any other output.
//
// Instrumented packages accept small Probe interfaces (see probe.go) whose
// nil value means "off": the hot path pays a single nil check and nothing
// else. Collectors hand out concrete probes; a nil *Collector hands out
// nil interfaces, so call sites never branch on whether observability is
// enabled.
//
// Determinism contract: counters and histogram bucket counts are integer
// and commutative, so concurrent writers from different sweep workers are
// safe. Gauges and histogram sums are floats — float addition is not
// associative — so float-valued series must stay single-writer. The
// Collector.Scope mechanism enforces this naturally: each sweep job scopes
// its collector with a unique config label, giving it disjoint series and
// trace tracks, which is why output is byte-identical at any parallelism.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension attached to a metric series.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float-valued metric. Set and Max are atomic (Max by CAS on
// the bit pattern) so racing writers cannot corrupt the value, but a gauge
// must have a single logical writer for output to stay deterministic — see
// the package comment.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Max raises the gauge to v if v is larger.
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram counts observations into fixed ascending buckets. Bounds are
// inclusive upper bounds; an implicit +Inf bucket catches the rest. Bucket
// counts and the total count are integers (safe under concurrency); the
// sum is a float and follows the single-writer rule.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindHistogram
)

func (k seriesKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one named, labeled time-series slot in the registry.
type series struct {
	kind    seriesKind
	name    string
	labels  string // canonical "{k=v,k=v}" or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metric series. Get-or-create calls are safe for
// concurrent use; rendering sorts series by name then labels so output is
// independent of creation order.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
	keys   []string // all map keys, kept so rendering never ranges a map
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// labelString renders labels in canonical sorted form: {a=1,b=2}.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + "=" + l.Value
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (r *Registry) lookup(kind seriesKind, name string, labels []Label) *series {
	key := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: series %q registered as %v, requested as %v", key, s.kind, kind))
		}
		return s
	}
	s := &series{kind: kind, name: name, labels: labelString(labels)}
	r.series[key] = s
	r.keys = append(r.keys, key)
	return s
}

// Counter returns (creating if needed) the counter with the given name and
// labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.lookup(kindCounter, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns (creating if needed) the gauge with the given name and
// labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.lookup(kindGauge, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns (creating if needed) the histogram with the given name
// and labels. Bounds must be ascending; they are fixed at first creation
// and later calls reuse the existing buckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(kindHistogram, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		s.hist = &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
	}
	return s.hist
}

// sortedSeries snapshots the series sorted by name then label string.
func (r *Registry) sortedSeries() []*series {
	r.mu.Lock()
	keys := make([]string, len(r.keys))
	copy(keys, r.keys)
	out := make([]*series, 0, len(keys))
	for _, k := range keys {
		out = append(out, r.series[k])
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// formatValue renders a float with the shortest round-trip representation,
// which is deterministic for identical bit patterns.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func boundName(b float64) string { return "le" + formatValue(b) }

// WriteText renders every series, one per line, sorted:
//
//	counter cache_accesses_total{level=L1D,result=hit} 812
//	gauge engine_license_width_bits{config=...} 512
//	histogram batch_us{...} le10=3 le100=9 le+Inf=0 count=12 sum=301.25
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.sortedSeries() {
		var err error
		switch s.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "counter %s%s %d\n", s.name, s.labels, s.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "gauge %s%s %s\n", s.name, s.labels, formatValue(s.gauge.Value()))
		case kindHistogram:
			h := s.hist
			parts := make([]string, 0, len(h.bounds)+3)
			for i, b := range h.bounds {
				parts = append(parts, fmt.Sprintf("%s=%d", boundName(b), h.buckets[i].Load()))
			}
			parts = append(parts,
				fmt.Sprintf("le+Inf=%d", h.buckets[len(h.bounds)].Load()),
				fmt.Sprintf("count=%d", h.Count()),
				fmt.Sprintf("sum=%s", formatValue(h.Sum())))
			_, err = fmt.Fprintf(w, "histogram %s%s %s\n", s.name, s.labels, strings.Join(parts, " "))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MetricPoint is one rendered metric value — the exact row WriteCSV would
// emit, as a structured record. Run manifests embed the snapshot so obsdiff
// can compare two runs metric by metric without re-parsing CSV.
type MetricPoint struct {
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"` // "k=v;k=v", as in the CSV column
	Field  string `json:"field,omitempty"`  // histogram field (leN/le+Inf/count/sum)
	Value  string `json:"value"`            // formatted exactly as WriteCSV renders it
}

// Key returns the identity of the point (everything but the value), the join
// key obsdiff matches old and new snapshots on.
func (p MetricPoint) Key() string {
	return p.Kind + " " + p.Name + "{" + p.Labels + "}" + p.Field
}

// csvLabels renders a canonical label string the way the CSV column does:
// braces stripped, ';' between pairs.
func csvLabels(labels string) string {
	labels = strings.TrimPrefix(strings.TrimSuffix(labels, "}"), "{")
	return strings.ReplaceAll(labels, ",", ";")
}

// Snapshot returns every rendered metric value, one per CSV row, in row
// order. WriteCSV prints exactly these points, so a snapshot and the CSV
// artifact can never disagree.
func (r *Registry) Snapshot() []MetricPoint {
	var out []MetricPoint
	add := func(kind, name, labels, field, value string) {
		out = append(out, MetricPoint{Kind: kind, Name: name, Labels: csvLabels(labels), Field: field, Value: value})
	}
	for _, s := range r.sortedSeries() {
		switch s.kind {
		case kindCounter:
			add("counter", s.name, s.labels, "", strconv.FormatUint(s.counter.Value(), 10))
		case kindGauge:
			add("gauge", s.name, s.labels, "", formatValue(s.gauge.Value()))
		case kindHistogram:
			h := s.hist
			for i, b := range h.bounds {
				add("histogram", s.name, s.labels, boundName(b), strconv.FormatUint(h.buckets[i].Load(), 10))
			}
			add("histogram", s.name, s.labels, "le+Inf", strconv.FormatUint(h.buckets[len(h.bounds)].Load(), 10))
			add("histogram", s.name, s.labels, "count", strconv.FormatUint(h.Count(), 10))
			add("histogram", s.name, s.labels, "sum", formatValue(h.Sum()))
		}
	}
	return out
}

// WriteCSV renders the registry as CSV with a fixed header. Label strings
// use ';' between pairs so the cells never need quoting:
//
//	type,name,labels,field,value
//	counter,cache_accesses_total,level=L1D;result=hit,,812
//	histogram,batch_us,config=memc3 b=8,le10,3
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "type,name,labels,field,value"); err != nil {
		return err
	}
	for _, p := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s\n", p.Kind, p.Name, p.Labels, p.Field, p.Value); err != nil {
			return err
		}
	}
	return nil
}
