// Command simbench is the repository's benchmark: one command, four
// workloads, end-to-end metrics for the simulator (host time, memory) and
// the simulated system (goodput, cycles), and a traced mode that splits the
// host time by layer. See README.md for the workloads, the metric map and
// how to run it.
//
//	simbench --workload lookup-l2 --seed 1 --seconds 10 --trace 0
//	simbench compare --base DIR --new DIR
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

var processStart = time.Now()

// nowSeconds reads the monotonic clock, in seconds since the process began.
func nowSeconds() float64 { return time.Since(processStart).Seconds() }

// extraMetric is a human-readable metric printed beside the result line but
// not part of it: one that only some workloads define, or a latency
// percentile that needs its sample count beside it.
type extraMetric struct {
	name     string
	unit     string
	value    float64
	samples  int // sample count behind a percentile (0 = not a percentile)
	perMille int // the percentile's rank, for the ten-beyond rule
	note     string
}

// passResult is what one measured pass reports.
type passResult struct {
	measureS  float64 // host seconds of the measured window
	keys      float64 // simulated key operations in the measured window
	attempted int64   // operations whose outputs were checked
	failed    int64   // checked operations that were wrong
	simFailed float64 // operations the modelled system failed (shed, degraded)
	sim       simStats
	e2e       map[string]float64 // sim_ end-to-end metrics
	extra     []extraMetric
	notes     []string           // statements printed beside the numbers
	layer     map[string]float64 // per-layer counters
}

// benchWorkload is one benchmark workload. setup builds a fresh simulated system
// from the seed; pass runs one measured pass on it. A workload whose pass
// consumes its setup (a fleet run mutates the fleet) is set up again before
// every pass.
type benchWorkload interface {
	setup(tr *tracer) error
	release() // drops the last setup's state, so two never coexist
	pass(tr *tracer) (passResult, error)
	consumesSetup() bool
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string // "full" or "tiny" (smoke tests)
	out      string // optional full result record
	spans    string // span file of a traced run; the CPU profile goes beside it
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.size, "size", "full", "workload size: full, or tiny for smoke tests")
	fs.StringVar(&o.out, "out", "", "also write the full result record (host, digest, extras) as JSON here")
	fs.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/traces/<workload>-seed<n>.spans.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "simbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "simbench: --seconds must be positive\n")
		return 2
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.spans.json", o.workload, o.seed))
	}
	w, err := newWorkload(o.workload, o.size, o.seed)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 2
	}
	rec, err := run(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := encodeLine(rec.Line)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	if o.out != "" {
		if err := writeRecord(o.out, rec); err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// phase accumulates the passes of one measuring phase.
type phase struct {
	setupS   []float64 // host seconds of each setup
	passS    []float64 // host seconds of each pass (setup excluded)
	iterS    []float64 // host seconds of each pass plus the setup made for it
	rates    []float64 // simulated keys per host second of each measured window
	passes   []passResult
	attempts int64
	failed   int64
}

func (p *phase) add(r passResult, setupS, passS float64) {
	p.passS = append(p.passS, passS)
	p.iterS = append(p.iterS, setupS+passS)
	p.rates = append(p.rates, ratio(r.keys, r.measureS))
	p.passes = append(p.passes, r)
	p.attempts += r.attempted
	p.failed += r.failed
}

// wallS is one full workload run: a setup plus a pass.
func (p *phase) wallS() float64 { return median(p.setupS) + median(p.passS) }

// A workload that keeps its state is set up minSetups times before
// measuring, and up to maxSetups times while the setups took less than
// setupBudget host seconds in all; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 5
	setupBudget = 2.0
)

// measure runs passes until the deadline (at least one), setting up before
// each pass when the workload consumes its state. tr is nil for untraced
// passes.
func measure(w benchWorkload, tr *tracer, deadline float64, ph *phase) error {
	for len(ph.passS) == 0 || nowSeconds() < deadline {
		tr.setRun(fmt.Sprintf("pass%d", len(ph.passS)))
		setupS := 0.0
		if w.consumesSetup() {
			w.release()
			runtime.GC()
			t := nowSeconds()
			if err := w.setup(tr); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setupS = nowSeconds() - t
			ph.setupS = append(ph.setupS, setupS)
		}
		tr.begin("bench.pass")
		t := nowSeconds()
		r, err := w.pass(tr)
		passS := nowSeconds() - t
		tr.end(1)
		if err != nil {
			return fmt.Errorf("pass %d: %w", len(ph.passS), err)
		}
		ph.add(r, setupS, passS)
	}
	return nil
}

// record is the full result of one run, written by --out and read by the
// compare command.
type record struct {
	Line
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      hostInfo          `json:"host"`
	SimDigest string            `json:"sim_sha256"`
	Passes    int               `json:"passes"`
	Extra     map[string]Metric `json:"extra"`
}

func writeRecord(path string, rec record) error {
	b, err := jsonIndent(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing record: %w", err)
	}
	return nil
}

// run executes one benchmark run and prints its human-readable report.
func run(w benchWorkload, o options, out io.Writer) (record, error) {
	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: collectHost(".")}
	h := rec.Host
	fmt.Fprintf(out, "simbench %s seed=%d seconds=%g trace=%v size=%s\n", o.workload, o.seed, o.seconds, o.trace, o.size)
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s cpu=%q rev=%s src=%.16s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Revision, h.SourceHash)

	var base phase
	if !w.consumesSetup() {
		total := 0.0
		for i := 0; i < minSetups || (i < maxSetups && total < setupBudget); i++ {
			w.release()
			runtime.GC()
			t := nowSeconds()
			if err := w.setup(nil); err != nil {
				return rec, fmt.Errorf("setup: %w", err)
			}
			base.setupS = append(base.setupS, nowSeconds()-t)
			total += nowSeconds() - t
		}
	}
	// The measured time starts after the up-front setups. A traced run
	// measures untraced for the first half of it (for the tracing overhead
	// and the digest comparison) and traced after.
	start := nowSeconds()
	untracedEnd := start + o.seconds
	if o.trace {
		untracedEnd = start + o.seconds/2
	}
	if err := measure(w, nil, untracedEnd, &base); err != nil {
		return rec, err
	}
	digest, err := checkDigests(base.passes)
	if err != nil {
		return rec, err
	}
	rec.SimDigest = digest
	last := base.passes[len(base.passes)-1]
	rec.Passes = len(base.passes)

	values := map[string]float64{}
	if !o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return rec, err
		}
		values["wall_s"] = base.wallS()
		values["setup_s"] = median(base.setupS)
		values["sim_mkeys_per_host_s"] = median(base.rates) / 1e6
		values["peak_rss_mb"] = rss
		for k, v := range last.e2e {
			values[k] = v
		}
		rec.Line = Line{Correct: base.failed == 0, Attempted: base.attempts, Failed: base.failed,
			Metrics: metricsFor(endToEnd, values)}
	} else {
		traced, err := tracedPhase(w, o, start+o.seconds, &base, values, out)
		if err != nil {
			return rec, err
		}
		tdigest, err := checkDigests(traced.passes)
		if err != nil {
			return rec, err
		}
		same := tdigest == digest
		fmt.Fprintf(out, "trace sim_sha256 traced=%s untraced=%s identical=%v\n", tdigest, digest, same)
		failed := base.failed + traced.failed
		rec.Passes += len(traced.passes)
		rec.Line = Line{Correct: failed == 0 && same, Attempted: base.attempts + traced.attempts, Failed: failed,
			Metrics: metricsFor(perLayer, values)}
	}
	rec.Extra = extras(last, base)
	report(out, o, rec, last, base)
	return rec, nil
}

// checkDigests verifies that every pass produced the same simulated
// statistics (the simulator is deterministic for a fixed seed) and returns
// their digest.
func checkDigests(passes []passResult) (string, error) {
	first := passes[0].sim.digest()
	for i, p := range passes[1:] {
		if d := p.sim.digest(); d != first {
			return "", fmt.Errorf("pass %d simulated statistics differ from pass 0 (%.16s vs %.16s): the simulation is not deterministic", i+1, d, first)
		}
	}
	return first, nil
}

// tracedPhase measures traced passes until the deadline under a CPU
// profile, and fills values with every per-layer metric.
func tracedPhase(w benchWorkload, o options, deadline float64, base *phase, values map[string]float64, out io.Writer) (*phase, error) {
	tr := newTracer()
	if !w.consumesSetup() {
		// One traced setup, for the setup layers' spans.
		w.release()
		runtime.GC()
		tr.setRun("setup")
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
	}
	profile := strings.TrimSuffix(o.spans, ".spans.json") + ".cpu.pprof"
	if err := os.MkdirAll(filepath.Dir(profile), 0o755); err != nil {
		return nil, err
	}
	prof, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	var ph phase
	err = measure(w, tr, deadline, &ph)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, fmt.Errorf("writing CPU profile: %w", err)
	}
	if err := tr.write(o.spans); err != nil {
		return nil, err
	}

	n := float64(len(ph.passes))
	last := ph.passes[len(ph.passes)-1]
	for k, v := range last.layer {
		values[k] = v
	}
	for _, sm := range spanMetrics {
		dur, count, items := tr.spanTotals(sm.span)
		if sm.perItemNs {
			values[sm.metric] = ratio(dur, float64(items)) * 1e9
		} else {
			values[sm.metric] = ratio(dur, float64(count))
		}
	}
	var engineS float64
	for _, name := range []string{"cuckoo.lookup.scalar", "cuckoo.lookup.horizontal", "cuckoo.lookup.vertical", "cuckoo.update"} {
		d, _, _ := tr.spanTotals(name)
		engineS += d
	}
	values["engine.host_ns_per_op"] = ratio(engineS/n, values["engine.ops"]) * 1e9
	values["des.events_per_host_s"] = ratio(values["des.events"], values["des.run_s"])
	values["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / n
	values["runtime.gc_cycles"] = float64(after.NumGC-before.NumGC) / n
	values["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / n

	shares, err := hostShares(profile)
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		values["host_share."+k] = v
	}
	// Tracing overhead: a traced pass against an untraced one (setup
	// included where each pass needs its own).
	traced, untraced := median(ph.iterS), median(base.iterS)
	values["trace.overhead_s"] = traced - untraced
	values["trace.overhead_ratio"] = ratio(traced, untraced) - 1

	layers := tr.layerSelf()
	for _, l := range sortedLayers(layers) {
		fmt.Fprintf(out, "layer_self %-10s %.6f s/pass\n", l, layers[l]/n)
	}
	return &ph, nil
}

// spanMetrics derives per-layer host-time metrics from the spans: the mean
// duration per call, or nanoseconds per unit of work.
var spanMetrics = []struct {
	metric, span string
	perItemNs    bool
}{
	{"workload.gen_s", "workload.gen", false},
	{"cuckoo.fill_s", "cuckoo.fill", false},
	{"cuckoo.lookup_ns_per_key.scalar", "cuckoo.lookup.scalar", true},
	{"cuckoo.lookup_ns_per_key.horizontal", "cuckoo.lookup.horizontal", true},
	{"cuckoo.lookup_ns_per_key.vertical", "cuckoo.lookup.vertical", true},
	{"cuckoo.update_ns_per_op", "cuckoo.update", true},
	{"cuckoo.insert_ns_per_op", "cuckoo.insert", true},
	{"kvs.build_s", "kvs.build", false},
	{"memslap.load_s", "memslap.load", false},
	{"des.run_s", "memslap.run", false},
}

// extras collects the human-readable metrics: failed_ratio, and the
// workload's own ones.
func extras(last passResult, base phase) map[string]Metric {
	out := map[string]Metric{
		"failed_ratio": {Value: ratio(float64(base.failed)+last.simFailed*float64(len(base.passes)), float64(base.attempts)), Unit: "ratio"},
	}
	for _, x := range last.extra {
		out[x.name] = Metric{Value: x.value, Unit: x.unit}
		if x.samples > 0 {
			out[x.name+".samples"] = Metric{Value: float64(x.samples), Unit: "count"}
		}
	}
	return out
}

// report prints every metric by name with its unit, then the statements the
// numbers need beside them.
func report(out io.Writer, o options, rec record, last passResult, base phase) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(out, "metric %-38s %14.6g %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	names := make([]string, 0, len(rec.Extra))
	for k := range rec.Extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "extra  %-38s %14.6g %s\n", k, rec.Extra[k].Value, rec.Extra[k].Unit)
	}
	for _, x := range last.extra {
		switch {
		case x.samples > 0:
			pm, ok := tailPerMille(x.samples, []int{500, 900, 990, 999})
			state := "meets"
			if samplesBeyond(x.samples, x.perMille) < minBeyond {
				state = "fails"
			}
			hi := "none"
			if ok {
				hi = fmt.Sprintf("p%g", float64(pm)/10)
			}
			fmt.Fprintf(out, "note   %s from %d samples %s the ten-beyond rule (highest qualifying percentile: %s)\n", x.name, x.samples, state, hi)
		case x.note != "":
			fmt.Fprintf(out, "note   %s: %s\n", x.name, x.note)
		}
	}
	for _, n := range last.notes {
		fmt.Fprintf(out, "note   %s\n", n)
	}
	fmt.Fprintln(out, "note   accuracy: unvalidated; EXPERIMENTS.md holds no reference value for these workloads, so no error figure is given")
	fmt.Fprintf(out, "sim_sha256 %s\n", rec.SimDigest)
	fmt.Fprintf(out, "timing setup_s=%s pass_s=%s\n", spreadOf(base.setupS), spreadOf(base.passS))
	fmt.Fprintf(out, "check  attempted=%d failed=%d correct=%v passes=%d\n", rec.Attempted, rec.Failed, rec.Correct, rec.Passes)
}

// spreadOf renders a sample set as n, min, median and max.
func spreadOf(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("n=%d[min %.4g med %.4g max %.4g]", len(s), s[0], median(s), s[len(s)-1])
}
