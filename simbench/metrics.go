package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
)

// metricDef declares one reported metric and which direction is better.
// End-to-end metrics also carry a bound in BENCHMARK.json; per-layer
// metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists the metrics of an untraced run (--trace 0), in print order.
// Host metrics measure the simulator; sim_ metrics measure the modelled
// system and repeat exactly for a fixed seed. Every workload defines every
// one of them (see README.md for the per-workload definitions).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_mkeys_per_host_s", "Mkeys/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_goodput_mkeys_s", "Mkeys/s", "higher"},
	{"sim_cycles_per_key", "cycles", "lower"},
}

// perLayer lists the metrics of a traced run (--trace 1), grouped by layer.
// A layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "workload.gen_s", Unit: "s", Better: "lower"},

	{Name: "cuckoo.fill_s", Unit: "s", Better: "lower"},
	{Name: "cuckoo.fill_items", Unit: "count", Better: "higher"},
	{Name: "cuckoo.fill_lf", Unit: "ratio", Better: "higher"},
	{Name: "cuckoo.lookup_ns_per_key.scalar", Unit: "ns", Better: "lower"},
	{Name: "cuckoo.lookup_ns_per_key.horizontal", Unit: "ns", Better: "lower"},
	{Name: "cuckoo.lookup_ns_per_key.vertical", Unit: "ns", Better: "lower"},
	{Name: "cuckoo.update_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "cuckoo.insert_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "cuckoo.insert_bfs_nodes", Unit: "count", Better: "lower"},
	{Name: "cuckoo.insert_relocations", Unit: "count", Better: "lower"},

	{Name: "engine.ops", Unit: "count", Better: "lower"},
	{Name: "engine.host_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "engine.mem_cycle_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.gather_cycles_per_key", Unit: "cycles", Better: "lower"},
	{Name: "engine.hash_cycles_per_key", Unit: "cycles", Better: "lower"},

	{Name: "cache.l1d_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.l2_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.l3_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.dram_fills_per_key", Unit: "count", Better: "lower"},

	{Name: "des.events", Unit: "count", Better: "lower"},
	{Name: "des.run_s", Unit: "s", Better: "lower"},
	{Name: "des.events_per_host_s", Unit: "1/s", Better: "higher"},

	{Name: "netsim.msgs", Unit: "count", Better: "lower"},
	{Name: "netsim.mbytes", Unit: "MB", Better: "lower"},
	{Name: "netsim.dropped", Unit: "count", Better: "lower"},
	{Name: "netsim.dup", Unit: "count", Better: "lower"},

	{Name: "kvs.build_s", Unit: "s", Better: "lower"},
	{Name: "kvs.batches", Unit: "count", Better: "higher"},
	{Name: "kvs.keys_served", Unit: "count", Better: "higher"},
	{Name: "kvs.worker_util", Unit: "ratio", Better: "lower"},
	{Name: "kvs.queue_high_water", Unit: "count", Better: "lower"},
	{Name: "kvs.shed_queue_full", Unit: "count", Better: "lower"},
	{Name: "kvs.shed_deadline", Unit: "count", Better: "lower"},
	{Name: "kvs.admit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "kvs.replica_items", Unit: "count", Better: "lower"},

	{Name: "memslap.load_s", Unit: "s", Better: "lower"},
	{Name: "memslap.retries", Unit: "count", Better: "lower"},
	{Name: "memslap.timeouts", Unit: "count", Better: "lower"},
	{Name: "memslap.failovers", Unit: "count", Better: "lower"},
	{Name: "memslap.repairs", Unit: "count", Better: "lower"},
	{Name: "memslap.epochs", Unit: "count", Better: "lower"},
	{Name: "memslap.keys_moved", Unit: "count", Better: "lower"},
	{Name: "memslap.writes", Unit: "count", Better: "higher"},
	{Name: "memslap.writes_failed", Unit: "count", Better: "lower"},
	{Name: "memslap.p99_queue_delay_us", Unit: "us", Better: "lower"},
	{Name: "memslap.hedges", Unit: "count", Better: "lower"},
	{Name: "memslap.hedge_win_ratio", Unit: "ratio", Better: "higher"},
	{Name: "memslap.budget_denied", Unit: "count", Better: "lower"},
	{Name: "memslap.goodput_ratio", Unit: "ratio", Better: "higher"},

	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},

	{Name: "host_share.vec", Unit: "ratio", Better: "lower"},
	{Name: "host_share.engine", Unit: "ratio", Better: "lower"},
	{Name: "host_share.cache", Unit: "ratio", Better: "lower"},
	{Name: "host_share.cuckoo", Unit: "ratio", Better: "lower"},
	{Name: "host_share.mem", Unit: "ratio", Better: "lower"},
	{Name: "host_share.des", Unit: "ratio", Better: "lower"},
	{Name: "host_share.netsim", Unit: "ratio", Better: "lower"},
	{Name: "host_share.kvs", Unit: "ratio", Better: "lower"},
	{Name: "host_share.memslap", Unit: "ratio", Better: "lower"},
	{Name: "host_share.runtime", Unit: "ratio", Better: "lower"},
	{Name: "host_share.other", Unit: "ratio", Better: "lower"},

	{Name: "trace.overhead_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetricName reports whether name is a legal metric name: a letter or
// digit, then letters, digits, '_', '.' and '-', at most 64 in all.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// validUnit reports whether unit is a legal unit string.
func validUnit(unit string) bool { return unitRE.MatchString(unit) }

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the result object printed as the last line of standard output.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// encodeLine renders l as one line of JSON. A metric with an illegal name
// or unit, or a non-finite value, is an error.
func encodeLine(l Line) (string, error) {
	for name, m := range l.Metrics {
		if !validMetricName(name) || !validUnit(m.Unit) {
			return "", fmt.Errorf("metric %q: illegal name or unit %q", name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is not finite (%v)", name, m.Value)
		}
	}
	b, err := json.Marshal(l)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// metricsFor picks the listed metrics out of values, with their units. A
// metric the workload did not set reports 0.
func metricsFor(defs []metricDef, values map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.Name] = Metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// samplesBeyond counts the samples above the per-mille rank pm in a sorted
// set of n, using the same index rule memslap applies to its latency arrays
// (index min(n-1, n*pm/1000)).
func samplesBeyond(n, pm int) int {
	if n <= 0 {
		return 0
	}
	return n - 1 - min(n-1, n*pm/1000)
}

// tailPerMille returns the highest of the given per-mille ranks that has at
// least minBeyond samples beyond it in a set of n, and false when none does.
func tailPerMille(n int, ranks []int) (int, bool) {
	best, ok := 0, false
	for _, pm := range ranks {
		if samplesBeyond(n, pm) >= minBeyond && (!ok || pm > best) {
			best, ok = pm, true
		}
	}
	return best, ok
}

// simStats is the ordered list of every simulated (cycle or virtual-time)
// number a run produces. Its digest lets a simulator-speed change show that
// the simulated statistics did not move.
type simStats struct {
	names []string
	vals  []float64
	index map[string]int
}

func (s *simStats) add(name string, v float64) {
	if s.index == nil {
		s.index = make(map[string]int)
	}
	s.index[name] = len(s.names)
	s.names = append(s.names, name)
	s.vals = append(s.vals, v)
}

// clone returns an independent copy.
func (s *simStats) clone() simStats {
	c := simStats{}
	for i, n := range s.names {
		c.add(n, s.vals[i])
	}
	return c
}

// get returns a recorded value (0 when absent).
func (s *simStats) get(name string) float64 {
	if i, ok := s.index[name]; ok {
		return s.vals[i]
	}
	return 0
}

// digest hashes every name and value, values at full precision.
func (s *simStats) digest() string {
	h := sha256.New()
	for i, n := range s.names {
		fmt.Fprintf(h, "%s=%s\n", n, strconv.FormatFloat(s.vals[i], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's exclusive method, in its exact integer arithmetic.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
