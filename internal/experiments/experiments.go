// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section V and VI). Each runner executes the
// corresponding SimdHT-Bench configuration and returns report tables, so
// the command-line harnesses (cmd/simdhtbench, cmd/kvsbench), the Go
// benchmarks (bench_test.go) and the tests all share the same experiment
// definitions.
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

// addRows appends pre-rendered rows to a table in order.
func addRows(t *report.Table, rows [][]string) {
	for _, row := range rows {
		cells := make([]interface{}, len(row))
		for i, c := range row {
			cells[i] = c
		}
		t.AddRow(cells...)
	}
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
	variants := [][2]int{{2, 1}, {3, 1}, {4, 1}, {2, 2}, {2, 4}, {2, 8}, {3, 2}, {3, 4}, {3, 8}}
	rows, err := core.ValidateGrid(m, variants, 32, 32, 1<<20, m.Widths)
	if err != nil {
		return "", err
	}
	return core.FormatListing(m, 32, 32, m.Widths, rows), nil
}

// fig5Variants is the Fig. 5 (N, m) grid in paper order.
var fig5Variants = [][2]int{{2, 1}, {3, 1}, {4, 1}, {2, 2}, {2, 4}, {2, 8}, {3, 2}, {3, 4}, {3, 8}}

// gridJobs builds one sweep job per (N, m) variant of the Fig. 5 grid for
// one access pattern, each returning its rendered table row.
func gridJobs(m *arch.Model, pattern workload.Pattern, tableBytes int, o Options) []sweep.Job[[]string] {
	jobs := make([]sweep.Job[[]string], len(fig5Variants))
	for i, nm := range fig5Variants {
		nm := nm
		label := fmt.Sprintf("fig5 (%d,%d) %s", nm[0], nm[1], pattern)
		jobs[i] = sweep.Job[[]string]{
			Label: label,
			Run: func() ([]string, error) {
				r, err := core.Run(core.Params{
					Arch: m, N: nm[0], M: nm[1], KeyBits: 32, ValBits: 32,
					TableBytes: tableBytes, LoadFactor: 0.9, HitRate: 0.9,
					Pattern: pattern, Queries: o.Queries, Seed: o.Seed,
					Obs:       o.Obs.Scope("config", label),
					Heartbeat: o.Heartbeat,
				})
				if err != nil {
					return nil, err
				}
				best, ok := r.Best()
				bestStr, speedStr := "-", "-"
				if ok {
					bestStr = fmt.Sprintf("%s %.1f M/s", best.Choice, best.LookupsPerSec/1e6)
					speedStr = fmt.Sprintf("%.2fx", r.Speedup(best))
				}
				return []string{
					fmt.Sprintf("(%d,%d)", nm[0], nm[1]), pattern.String(),
					fmt.Sprintf("%.2f", r.AchievedLF),
					fmt.Sprintf("%.1f", r.Scalar.LookupsPerSec/1e6),
					bestStr, speedStr,
				}, nil
			},
		}
	}
	return jobs
}

// Fig5 reproduces Case Study ①(a): horizontal vs vertical SIMD approaches
// over the (N, m) grid, 1 MB HT, (32,32), LF=90%, hit rate 90%, uniform and
// skewed, on Skylake Cluster A.
func Fig5(o Options) (*report.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m := arch.SkylakeClusterA()
	t := report.NewTable("Fig. 5 / Case Study 1a: SIMD approaches on Skylake, 1MB HT, (32,32)b, LF=90%, hit=90%",
		"(N,m)", "Pattern", "LF", "Scalar M/s", "Best SIMD", "Speedup")
	var jobs []sweep.Job[[]string]
	for _, p := range []workload.Pattern{workload.Uniform, workload.Skewed} {
		jobs = append(jobs, gridJobs(m, p, 1<<20, o)...)
	}
	rows, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

// Fig6 reproduces Case Study ①(b): lookup performance and SIMD benefit as
// the hash-table size sweeps 256 KB → 64 MB (uniform pattern).
func Fig6(o Options) (*report.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m := arch.SkylakeClusterA()
	t := report.NewTable("Fig. 6 / Case Study 1b: HT size sweep on Skylake, uniform, LF=90%, hit=90%",
		"HT Size", "Layout", "Scalar M/s", "Best SIMD", "Speedup")
	var jobs []sweep.Job[[]string]
	for _, sz := range []int{256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20} {
		for _, nm := range [][2]int{{2, 4}, {3, 1}} {
			sz, nm := sz, nm
			label := fmt.Sprintf("fig6 %s (%d,%d)", sizeLabel(sz), nm[0], nm[1])
			jobs = append(jobs, sweep.Job[[]string]{
				Label: label,
				Run: func() ([]string, error) {
					r, err := core.Run(core.Params{
						Arch: m, N: nm[0], M: nm[1], KeyBits: 32, ValBits: 32,
						TableBytes: sz, LoadFactor: 0.9, HitRate: 0.9,
						Pattern: workload.Uniform, Queries: o.Queries, Seed: o.Seed,
						Obs:       o.Obs.Scope("config", label),
						Heartbeat: o.Heartbeat,
					})
					if err != nil {
						return nil, err
					}
					best, _ := r.Best()
					return []string{
						sizeLabel(sz), fmt.Sprintf("(%d,%d)", nm[0], nm[1]),
						fmt.Sprintf("%.1f", r.Scalar.LookupsPerSec/1e6),
						fmt.Sprintf("%s %.1f M/s", best.Choice, best.LookupsPerSec/1e6),
						fmt.Sprintf("%.2fx", r.Speedup(best)),
					}, nil
				},
			})
		}
	}
	rows, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

func sizeLabel(sz int) string {
	if sz >= 1<<20 {
		return fmt.Sprintf("%d MB", sz>>20)
	}
	return fmt.Sprintf("%d KB", sz>>10)
}

// Fig5Grid renders Case Study ①(a) in the paper's bubble-grid arrangement:
// slots-per-bucket rows against N-way columns, each cell carrying the best
// SIMD throughput and its speedup over scalar for the given pattern.
func Fig5Grid(pattern workload.Pattern, o Options) (*report.Grid, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m := arch.SkylakeClusterA()
	type cell struct {
		row, col, value string
	}
	var jobs []sweep.Job[cell]
	for _, mm := range []int{1, 2, 4, 8} {
		for _, n := range []int{2, 3, 4} {
			if mm > 1 && n == 4 {
				continue // the paper's grid stops BCHT at N=3
			}
			mm, n := mm, n
			label := fmt.Sprintf("fig5grid (%d,%d) %s", n, mm, pattern)
			jobs = append(jobs, sweep.Job[cell]{
				Label: label,
				Run: func() (cell, error) {
					r, err := core.Run(core.Params{
						Arch: m, N: n, M: mm, KeyBits: 32, ValBits: 32,
						TableBytes: 1 << 20, LoadFactor: 0.9, HitRate: 0.9,
						Pattern: pattern, Queries: o.Queries, Seed: o.Seed,
						Obs:       o.Obs.Scope("config", label),
						Heartbeat: o.Heartbeat,
					})
					if err != nil {
						return cell{}, err
					}
					best, ok := r.Best()
					value := "no SIMD fit"
					if ok {
						value = fmt.Sprintf("%.0f M/s (%.2fx)", best.LookupsPerSec/1e6, r.Speedup(best))
					}
					return cell{row: fmt.Sprintf("m=%d", mm), col: fmt.Sprintf("N=%d", n), value: value}, nil
				},
			})
		}
	}
	cells, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	g := report.NewGrid(
		fmt.Sprintf("Fig. 5 grid (%s): best SIMD M lookups/s (speedup); blue=N-way row m=1, yellow=BCHT", pattern),
		"slots/bkt", "N=2", "N=3", "N=4")
	for _, c := range cells {
		g.Set(c.row, c.col, c.value)
	}
	return g, nil
}
