package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestSamplesBeyondAndTailRule(t *testing.T) {
	for _, c := range []struct{ n, pm, want int }{
		{0, 990, 0},
		{1000, 990, 9}, // index 990 of 0..999: nine samples above it
		{1001, 990, 10},
		{10000, 999, 9},
		{10001, 999, 10},
		{100, 500, 49},
	} {
		if got := samplesBeyond(c.n, c.pm); got != c.want {
			t.Errorf("samplesBeyond(%d, %d) = %d, want %d", c.n, c.pm, got, c.want)
		}
	}
	ranks := []int{500, 900, 990, 999}
	for _, c := range []struct {
		n      int
		want   int
		wantOK bool
	}{
		{5, 0, false},
		{21, 500, true},
		{1000, 900, true},
		{1001, 990, true},
		{10000, 990, true},
		{10001, 999, true},
	} {
		got, ok := tailPerMille(c.n, ranks)
		if got != c.want || ok != c.wantOK {
			t.Errorf("tailPerMille(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.wantOK)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"wall_s", "cuckoo.lookup_ns_per_key.scalar", "a-b", "9x", strings.Repeat("a", 64)} {
		if !validMetricName(ok) {
			t.Errorf("validMetricName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a%", "é", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true, want false", bad)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := checkDefs(defs); err != nil {
			t.Error(err)
		}
	}
	if err := checkDefs([]metricDef{{Name: "x", Unit: "s"}, {Name: "x", Unit: "s"}}); err == nil {
		t.Error("checkDefs accepted a duplicate name")
	}
	if err := checkDefs([]metricDef{{Name: "x", Unit: "seconds per thing"}}); err == nil {
		t.Error("checkDefs accepted an invalid unit")
	}
}

// inexact is 0.1+0.2 computed at run time (constant arithmetic would be
// exact): 0.30000000000000004, a value that needs all 17 digits.
var inexact = func() float64 { x := 0.1; return x + 0.2 }()

func TestLineRoundTrip(t *testing.T) {
	in := Line{Correct: true, Attempted: 1234567, Failed: 0, Metrics: map[string]Metric{
		"wall_s":              {Value: inexact, Unit: "s"},
		"sim_goodput_mkeys_s": {Value: 89.17198966884702, Unit: "Mkeys/s"},
		"tiny":                {Value: 1e-300, Unit: "count"},
	}}
	s, err := encodeLine(in)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s, "\n") {
		t.Fatalf("encoded line spans lines: %q", s)
	}
	out, err := decodeLine(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the line:\n in %+v\nout %+v", in, out)
	}
	if _, err := encodeLine(Line{Attempted: 1, Metrics: map[string]Metric{"x": {Value: math.NaN(), Unit: "s"}}}); err == nil {
		t.Error("encodeLine accepted NaN")
	}
	if _, err := encodeLine(Line{Attempted: 1, Metrics: map[string]Metric{"a b": {Value: 1, Unit: "s"}}}); err == nil {
		t.Error("encodeLine accepted an illegal metric name")
	}
	for _, bad := range []string{
		`{"correct":true,"attempted":0,"failed":0,"metrics":{}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"a b":{"value":1,"unit":"s"}}}`,
	} {
		if _, err := decodeLine(bad); err == nil {
			t.Errorf("decodeLine accepted %s", bad)
		}
	}
}

func TestSimDigest(t *testing.T) {
	var a, b simStats
	a.add("x", 1.5)
	a.add("y", inexact)
	b.add("x", 1.5)
	b.add("y", 0.3)
	if a.digest() == b.digest() {
		t.Error("digest ignores the last bit of a value")
	}
	c := a.clone()
	if c.digest() != a.digest() || c.get("y") != a.get("y") {
		t.Error("clone differs from the original")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.pass", Dur: 10},
		{ID: 1, Parent: 0, Name: "cuckoo.lookup.scalar", Dur: 6},
		{ID: 2, Parent: 0, Name: "bench.check", Dur: 1},
		{ID: 3, Parent: 1, Name: "cache.touch", Dur: 2},
	}
	got := selfTimes(spans)
	if want := []float64{3, 4, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	tr := newTracer()
	tr.setRun("pass0")
	tr.begin("bench.pass")
	for i := 0; i < 3; i++ {
		tr.begin("cuckoo.update")
		tr.end(1)
	}
	tr.end(1)
	if len(tr.spans) != 2 {
		t.Fatalf("repeated calls did not fold: %d spans", len(tr.spans))
	}
	if _, count, items := tr.spanTotals("cuckoo.update"); count != 3 || items != 3 {
		t.Errorf("folded span count/items = %d/%d, want 3/3", count, items)
	}
	var nilTracer *tracer
	nilTracer.begin("x") // the untraced run: no-ops
	nilTracer.end(1)
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: simbench
Type: cpu
Showing nodes accounting for 4.85s, 100% of 4.85s total
      flat  flat%   sum%        cum   cum%
     1.20s 24.74% 24.74%      1.20s 24.74%  simdhtbench/internal/cache.(*level).access
     0.50s 10.31% 35.05%      0.60s 12.37%  runtime.mallocgc
     0.40s  8.25% 43.30%      0.40s  8.25%  simdhtbench/internal/cache.(*Hierarchy).Access
     0.10s  2.06% 45.36%      0.10s  2.06%  sort.Slice[go.shape.struct { simdhtbench/internal/kvs.x int }]
     0.10s  2.06% 47.42%      2.10s 43.30%  main.(*microWorkload).pass
`)
	got, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cache": 0.3299, "runtime": 0.1031, "other": 0.0412}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parsePprofTop([]byte("no table here")); err == nil {
		t.Error("parsePprofTop accepted output without rows")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, file []def, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(file), len(prog))
			return
		}
		for i, d := range file {
			if d.Name != prog[i].Name || d.Unit != prog[i].Unit || d.Better != prog[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, d, prog[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks the result line's shape and the output checks.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", trace,
					"--size", "tiny",
					"--spans", filepath.Join(dir, name+".spans.json"),
					"--out", filepath.Join(dir, name+"-"+trace+".json")}
				if code := runMain(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				l, err := decodeLine(lines[len(lines)-1])
				if err != nil {
					t.Fatal(err)
				}
				if !l.Correct || l.Failed != 0 {
					t.Fatalf("output checks failed: %+v", l)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(l.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(l.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := l.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s missing or with unit %q", d.Name, m.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if trace == "1" && !strings.Contains(stdout.String(), "identical=true") {
					t.Error("traced run's simulated statistics differ from the untraced run's")
				}
			})
		}
	}
}

func TestCompareRefusesMixedCoreCounts(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	rec := record{Line: Line{Correct: true, Attempted: 1, Metrics: map[string]Metric{"wall_s": {Value: 1, Unit: "s"}}},
		Workload: "lookup-l2", Seed: 1, Host: hostInfo{NProc: 2, GOMAXPROCS: 2}, SimDigest: "d"}
	if err := writeRecord(filepath.Join(base, "a.json"), rec); err != nil {
		t.Fatal(err)
	}
	rec.Metrics = map[string]Metric{"wall_s": {Value: 1.01, Unit: "s"}}
	if err := writeRecord(filepath.Join(cur, "a.json"), rec); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	bench := filepath.Join("..", "BENCHMARK.json")
	if code := compareMain([]string{"--base", base, "--new", cur, "--bench", bench}, &out, &errb); code != 0 {
		t.Fatalf("same-host comparison: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "1 seeds identical") {
		t.Errorf("digest comparison missing:\n%s", out.String())
	}
	rec.Host.NProc = 8
	if err := writeRecord(filepath.Join(cur, "a.json"), rec); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := compareMain([]string{"--base", base, "--new", cur, "--bench", bench}, &out, &errb); code != 2 {
		t.Fatalf("mixed-core comparison: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "different core counts") {
		t.Errorf("refusal does not name the reason: %s", errb.String())
	}
}

// checkDefs validates a metric list: legal, unique names and units.
func checkDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !validMetricName(d.Name) {
			return fmt.Errorf("invalid metric name %q", d.Name)
		}
		if !validUnit(d.Unit) {
			return fmt.Errorf("metric %s: invalid unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// decodeLine parses a result line and checks its shape.
func decodeLine(s string) (Line, error) {
	var l Line
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return Line{}, fmt.Errorf("decoding result line: %w", err)
	}
	if l.Attempted < 1 {
		return Line{}, fmt.Errorf("result line: attempted %d < 1", l.Attempted)
	}
	for name, m := range l.Metrics {
		if !validMetricName(name) || !validUnit(m.Unit) {
			return Line{}, fmt.Errorf("result line: bad metric %q (unit %q)", name, m.Unit)
		}
	}
	return l, nil
}
