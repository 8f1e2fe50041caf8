// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section V and VI). Each runner executes the
// corresponding SimdHT-Bench configuration and returns report tables. The
// artifact registry (registry.go) lists what each command-line harness
// (cmd/simdhtbench, cmd/kvsbench) prints by name, and the CLIs, the Go
// benchmarks (bench_test.go) and the tests share the runners.
//
// Every runner fans its configurations out across the internal/sweep worker
// pool: each job builds its own engine, address space and seeded RNGs, so
// runs are independent, and the sweep merges results back in canonical
// configuration order — output is bit-identical at any parallelism level
// (Options.Parallel == 1 recovers the historical sequential loops).
//
// The per-experiment index in DESIGN.md maps every runner here to its
// paper counterpart; EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"fmt"
	"math"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/core"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/report"
	"simdhtbench/internal/sweep"
	"simdhtbench/internal/workload"
)

// Options sizes the micro-benchmark studies. DefaultOptions holds the
// values simdhtbench runs by default; every study rejects a non-positive
// Queries with a *memslap.ConfigError before it measures anything.
type Options struct {
	Queries int   // measured queries per configuration
	Seed    int64 // base seed

	// Parallel is the sweep worker count: 0 fans configurations out across
	// all cores (GOMAXPROCS), 1 runs them sequentially on the calling
	// goroutine. Results are bit-identical at every setting.
	Parallel int

	// OnSweep, when non-nil, observes the timing stats of every sweep the
	// experiment performs (the CLIs wire -sweepstats to print them).
	OnSweep func(*sweep.Stats)

	// Obs, when non-nil, collects deterministic metrics and virtual-time
	// trace spans for every configuration (the CLIs wire -trace/-metrics
	// to it). Each sweep job scopes the collector with its unique config
	// label, so output is byte-identical at any Parallel setting.
	Obs *obs.Collector

	// Heartbeat, when non-nil, emits periodic stderr progress (-heartbeat);
	// wall-derived, never part of deterministic output.
	Heartbeat *obs.Heartbeat
}

// DefaultOptions returns the options simdhtbench runs by default, the
// sizes EXPERIMENTS.md records.
func DefaultOptions() Options {
	return Options{Queries: 6000, Seed: 1}
}

// Validate returns a *memslap.ConfigError naming the field when o cannot
// run (a non-positive Queries). Every study calls it before it measures
// anything, and simdhtbench's record command before it creates its trace.
func (o Options) Validate() error {
	return positive("queries", o.Queries)
}

// positive returns a *memslap.ConfigError naming field unless vs holds at
// least one value and every value is positive and finite (so not NaN).
func positive[T int | float64](field string, vs ...T) error {
	if len(vs) == 0 {
		return &memslap.ConfigError{Field: field, Reason: "none given"}
	}
	for _, v := range vs {
		if f := float64(v); !(f > 0 && f <= math.MaxFloat64) {
			return &memslap.ConfigError{Field: field, Reason: fmt.Sprintf("%v is not positive and finite", v)}
		}
	}
	return nil
}

// fanOut runs the jobs through the sweep runner at the requested
// parallelism and reports timing stats to the observer, if any.
func fanOut[T any](parallel int, onSweep func(*sweep.Stats), jobs []sweep.Job[T]) ([]T, error) {
	out, stats, err := sweep.Run(parallel, jobs)
	if onSweep != nil {
		onSweep(stats)
	}
	return out, err
}

// Table1 reproduces Table I: the registry of state-of-the-art CPU-optimized
// cuckoo hash-table designs.
func Table1() *report.Table {
	t := report.NewTable("Table I: state-of-the-art CPU-optimized cuckoo hash table variants",
		"Research Work", "Memory Layout (m x (K,V))", "N-way", "SIMD-aware Design", "Notes")
	for _, e := range core.Registry() {
		t.AddRow(e.Name,
			fmt.Sprintf("%d x (%d B, %d B)", e.SlotsPerBkt, e.KeyBytes, e.ValBytes),
			fmt.Sprintf("%d-way", e.NWay), e.SIMD, e.Note)
	}
	return t
}

// Fig2 reproduces Fig. 2: maximum achievable load factor per (N, m) cuckoo
// variant, measured by inserting to failure. Each variant is an independent
// sweep job (its trial seeds depend only on (N, m, trial), so the fan-out
// preserves the sequential numbers exactly).
func Fig2(o Options) (*report.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	variants := core.Fig2Variants()
	jobs := make([]sweep.Job[core.LoadFactorPoint], len(variants))
	for i, nm := range variants {
		nm := nm
		jobs[i] = sweep.Job[core.LoadFactorPoint]{
			Label: fmt.Sprintf("fig2 (%d,%d)", nm[0], nm[1]),
			Run: func() (core.LoadFactorPoint, error) {
				pts, err := core.LoadFactorStudy([][2]int{nm}, 10, 3, o.Seed)
				if err != nil {
					return core.LoadFactorPoint{}, err
				}
				return pts[0], nil
			},
		}
	}
	points, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 2: max load factor vs N-way hashing vs BCHT (measured, 3 trials)",
		"Variant", "Kind", "Max LF", "")
	for _, p := range points {
		kind := "N-way (non-bucketized)"
		if p.Bucketized {
			kind = "BCHT"
		}
		t.AddRow(fmt.Sprintf("(%d,%d)", p.N, p.M), kind,
			fmt.Sprintf("%.3f", p.MaxLF), report.Bar(p.MaxLF, 1.0, 40))
	}
	return t, nil
}

// Listing1 reproduces Listing 1: the validation engine's design-choice
// output for (k,v) = (32,32) at widths 128/256/512 on Skylake.
func Listing1() (string, error) {
	m := arch.SkylakeClusterA()
	rows, err := core.ValidateGrid(m, core.DesignGrid(), 32, 32, 1<<20, m.Widths)
	if err != nil {
		return "", err
	}
	return core.FormatListing(m, 32, 32, m.Widths, rows), nil
}

// config is one labelled performance-engine configuration of a micro
// study. The label names its sweep job and its "config" obs scope.
type config struct {
	label string
	p     core.Params
}

// baseParams is the configuration the micro studies vary: (32,32)-bit keys
// and payloads, LF 0.9, hit rate 0.9 and uniform accesses, over an (n, m)
// layout of tableBytes on arch a.
func baseParams(a *arch.Model, n, m, tableBytes int) core.Params {
	return core.Params{
		Arch: a, N: n, M: m, KeyBits: 32, ValBits: 32, TableBytes: tableBytes,
		LoadFactor: 0.9, HitRate: 0.9, Pattern: workload.Uniform,
	}
}

// runConfigs runs a micro study. It validates o, gives every config o's
// Queries, Seed and Heartbeat and the "config" obs scope of its label, runs
// each through core.Run as one sweep job, and returns the results in the
// order of cfgs.
func runConfigs(o Options, cfgs []config) ([]*core.Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	jobs := make([]sweep.Job[*core.Result], len(cfgs))
	for i, c := range cfgs {
		p := c.p
		p.Queries, p.Seed, p.Heartbeat = o.Queries, o.Seed, o.Heartbeat
		p.Obs = o.Obs.Scope("config", c.label)
		jobs[i] = sweep.Job[*core.Result]{Label: c.label, Run: func() (*core.Result, error) { return core.Run(p) }}
	}
	return fanOut(o.Parallel, o.OnSweep, jobs)
}

// layoutLabel renders a configuration's (N, m) layout.
func layoutLabel(p core.Params) string {
	return fmt.Sprintf("(%d,%d)", p.N, p.M)
}

// mops renders a per-second rate in millions.
func mops(perSec float64) string {
	return fmt.Sprintf("%.1f", perSec/1e6)
}

// times renders a throughput ratio.
func times(ratio float64) string {
	return fmt.Sprintf("%.2fx", ratio)
}

func sizeLabel(sz int) string {
	if sz >= 1<<20 {
		return fmt.Sprintf("%d MB", sz>>20)
	}
	return fmt.Sprintf("%d KB", sz>>10)
}

// Fig5StudyResult runs Case Study ①(a): horizontal vs vertical SIMD
// approaches over the core.DesignGrid variants, 1 MB HT, (32,32), LF=90%,
// hit rate 90%, on Skylake Cluster A — one result per variant for the
// uniform pattern, then for the skewed one. Fig5Table and Fig5Grid both
// render it, so a run that prints both simulates each configuration once.
func Fig5StudyResult(o Options) ([]*core.Result, error) {
	m := arch.SkylakeClusterA()
	var cfgs []config
	for _, pattern := range []workload.Pattern{workload.Uniform, workload.Skewed} {
		for _, nm := range core.DesignGrid() {
			p := baseParams(m, nm[0], nm[1], 1<<20)
			p.Pattern = pattern
			cfgs = append(cfgs, config{fmt.Sprintf("fig5 (%d,%d) %s", nm[0], nm[1], pattern), p})
		}
	}
	return runConfigs(o, cfgs)
}

// Fig5Table renders Fig. 5 as a table, one row per configuration.
func Fig5Table(runs []*core.Result) *report.Table {
	t := report.NewTable("Fig. 5 / Case Study 1a: SIMD approaches on Skylake, 1MB HT, (32,32)b, LF=90%, hit=90%",
		"(N,m)", "Pattern", "LF", "Scalar M/s", "Best SIMD", "Speedup")
	for _, r := range runs {
		best, ok := r.Best()
		bestStr, speedStr := "-", "-"
		if ok {
			bestStr = fmt.Sprintf("%s %s M/s", best.Choice, mops(best.LookupsPerSec))
			speedStr = times(r.Speedup(best))
		}
		t.AddRow(layoutLabel(r.Params), r.Params.Pattern.String(), fmt.Sprintf("%.2f", r.AchievedLF),
			mops(r.Scalar.LookupsPerSec), bestStr, speedStr)
	}
	return t
}

// Fig5Grid renders one pattern of Case Study ①(a) in the paper's
// bubble-grid arrangement: slots-per-bucket rows against N-way columns,
// each cell carrying the best SIMD throughput and its speedup over scalar.
func Fig5Grid(runs []*core.Result, pattern workload.Pattern) *report.Grid {
	g := report.NewGrid(
		fmt.Sprintf("Fig. 5 grid (%s): best SIMD M lookups/s (speedup); blue=N-way row m=1, yellow=BCHT", pattern),
		"slots/bkt", "N=2", "N=3", "N=4")
	for _, r := range runs {
		if r.Params.Pattern != pattern {
			continue
		}
		value := "no SIMD fit"
		if best, ok := r.Best(); ok {
			value = fmt.Sprintf("%.0f M/s (%.2fx)", best.LookupsPerSec/1e6, r.Speedup(best))
		}
		g.Set(fmt.Sprintf("m=%d", r.Params.M), fmt.Sprintf("N=%d", r.Params.N), value)
	}
	return g
}

// Fig6 reproduces Case Study ①(b): lookup performance and SIMD benefit as
// the hash-table size sweeps 256 KB → 64 MB (uniform pattern).
func Fig6(o Options) (*report.Table, error) {
	m := arch.SkylakeClusterA()
	var cfgs []config
	for _, sz := range []int{256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20} {
		for _, nm := range [][2]int{{2, 4}, {3, 1}} {
			cfgs = append(cfgs, config{fmt.Sprintf("fig6 %s (%d,%d)", sizeLabel(sz), nm[0], nm[1]), baseParams(m, nm[0], nm[1], sz)})
		}
	}
	runs, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 6 / Case Study 1b: HT size sweep on Skylake, uniform, LF=90%, hit=90%",
		"HT Size", "Layout", "Scalar M/s", "Best SIMD", "Speedup")
	for _, r := range runs {
		best, _ := r.Best()
		t.AddRow(sizeLabel(r.Params.TableBytes), layoutLabel(r.Params), mops(r.Scalar.LookupsPerSec),
			fmt.Sprintf("%s %s M/s", best.Choice, mops(best.LookupsPerSec)), times(r.Speedup(best)))
	}
	return t, nil
}
