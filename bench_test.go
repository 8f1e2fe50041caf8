// Package simdhtbench_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation.
//
// Each benchmark executes the same experiment runner the cmd/simdhtbench
// and cmd/kvsbench harnesses use (internal/experiments), at a reduced query
// count so `go test -bench=.` completes quickly; the command-line harnesses
// regenerate the full-size tables. Custom metrics report the headline
// quantity of each figure (speedups, load factors, latency gains) so a
// bench run doubles as a regression check on the reproduced shapes.
package simdhtbench_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/core"
	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/experiments"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
	"simdhtbench/internal/report"
	"simdhtbench/internal/workload"
)

// tableRows counts a table's data rows through its CSV rendering.
func tableRows(t *report.Table) int {
	var b strings.Builder
	t.CSV(&b)
	return strings.Count(b.String(), "\n") - 1
}

// benchOpts trims experiments for benchmark iterations.
var benchOpts = experiments.Options{Queries: 1500, Seed: 1}

// kvsBenchOpts trims the Section VI stack for benchmark iterations.
var kvsBenchOpts = experiments.KVSOptions{Items: 60000, Requests: 600, Seed: 7}

// BenchmarkTable1Registry regenerates Table I (the design registry).
func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := experiments.Table1(); tableRows(t) == 0 {
			b.Fatal("empty registry")
		}
	}
}

// BenchmarkFig2LoadFactor regenerates Fig. 2: empirical maximum load factor
// of every (N, m) cuckoo variant.
func BenchmarkFig2LoadFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := core.LoadFactorStudy(core.Fig2Variants(), 9, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.N == 3 && p.M == 1 {
				b.ReportMetric(p.MaxLF, "LF-3way")
			}
			if p.N == 2 && p.M == 4 {
				b.ReportMetric(p.MaxLF, "LF-2x4")
			}
		}
	}
}

// BenchmarkListing1Validation regenerates Listing 1: the validation
// engine's design-choice enumeration.
func BenchmarkListing1Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Listing1()
		if err != nil {
			b.Fatal(err)
		}
		if len(s) == 0 {
			b.Fatal("empty listing")
		}
	}
}

// benchSpeedup runs one performance-engine configuration and reports the
// best SIMD speedup as a custom metric, plus the simulator's own throughput
// (simulated Mlookups per host second over every measured variant), the
// sim-speed series `go test -bench` prints beside it.
func benchSpeedup(b *testing.B, p core.Params, metric string) {
	b.Helper()
	var simQueries, hostSeconds float64
	for i := 0; i < b.N; i++ {
		r, err := core.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		best, ok := r.Best()
		if !ok {
			b.Fatal("no SIMD design viable")
		}
		b.ReportMetric(r.Speedup(best), metric)
		b.ReportMetric(best.LookupsPerSec/1e6, "Mlookups/s")
		simQueries += float64(r.Params.Queries)
		hostSeconds += r.Scalar.HostSeconds
		for _, m := range r.Vector {
			simQueries += float64(r.Params.Queries)
			hostSeconds += m.HostSeconds
		}
	}
	if hostSeconds > 0 {
		b.ReportMetric(simQueries/hostSeconds/1e6, "sim-Mlookups/s")
	}
}

// BenchmarkFig5HorizontalVsVertical regenerates the headline points of
// Fig. 5 (Case Study ①a): best SIMD speedup for the 3-way vertical and
// (2,4) horizontal designs, uniform and skewed, 1 MB HT.
func BenchmarkFig5HorizontalVsVertical(b *testing.B) {
	model := arch.SkylakeClusterA()
	cases := []struct {
		name    string
		n, m    int
		pattern workload.Pattern
	}{
		{"3way-vertical-uniform", 3, 1, workload.Uniform},
		{"3way-vertical-skewed", 3, 1, workload.Skewed},
		{"2x4-horizontal-uniform", 2, 4, workload.Uniform},
		{"2x4-horizontal-skewed", 2, 4, workload.Skewed},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchSpeedup(b, core.Params{
				Arch: model, N: c.n, M: c.m, KeyBits: 32, ValBits: 32,
				TableBytes: 1 << 20, LoadFactor: 0.9, HitRate: 0.9,
				Pattern: c.pattern, Queries: benchOpts.Queries, Seed: benchOpts.Seed,
			}, "speedup")
		})
	}
}

// BenchmarkFig6HTSizeSweep regenerates Fig. 6 (Case Study ①b): the SIMD
// benefit at the two ends of the table-size sweep.
func BenchmarkFig6HTSizeSweep(b *testing.B) {
	model := arch.SkylakeClusterA()
	for _, sz := range []int{256 << 10, 64 << 20} {
		name := "256KB"
		if sz == 64<<20 {
			name = "64MB"
		}
		b.Run(name, func(b *testing.B) {
			benchSpeedup(b, core.Params{
				Arch: model, N: 3, M: 1, KeyBits: 32, ValBits: 32,
				TableBytes: sz, LoadFactor: 0.9, HitRate: 0.9,
				Pattern: workload.Uniform, Queries: benchOpts.Queries, Seed: benchOpts.Seed,
			}, "speedup")
		})
	}
}

// BenchmarkFig7aKeySizes regenerates Fig. 7a (Case Study ②): the 64-bit
// key/payload gather-width penalty and the 16-bit key BCHT.
func BenchmarkFig7aKeySizes(b *testing.B) {
	model := arch.SkylakeClusterA()
	b.Run("64x64-3way-vertical", func(b *testing.B) {
		benchSpeedup(b, core.Params{
			Arch: model, N: 3, M: 1, KeyBits: 64, ValBits: 64,
			TableBytes: 512 << 10, LoadFactor: 0.9, HitRate: 0.9,
			Pattern: workload.Uniform, Queries: benchOpts.Queries, Seed: benchOpts.Seed,
		}, "speedup")
	})
	b.Run("16x32-2x8-horizontal", func(b *testing.B) {
		benchSpeedup(b, core.Params{
			Arch: model, N: 2, M: 8, KeyBits: 16, ValBits: 32,
			TableBytes: 512 << 10, LoadFactor: 0.9, HitRate: 0.9,
			Pattern: workload.Uniform, Queries: benchOpts.Queries, Seed: benchOpts.Seed,
		}, "speedup")
	})
}

// BenchmarkFig7bAVX2VsAVX512 regenerates Fig. 7b (Case Study ③): the gain
// of doubling the vector width on a 3-way cuckoo HT, in and out of cache.
func BenchmarkFig7bAVX2VsAVX512(b *testing.B) {
	model := arch.SkylakeClusterA()
	for _, sz := range []int{1 << 20, 16 << 20} {
		name := "1MB"
		if sz == 16<<20 {
			name = "16MB"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.Run(core.Params{
					Arch: model, N: 3, M: 1, KeyBits: 32, ValBits: 32,
					TableBytes: sz, LoadFactor: 0.9, HitRate: 0.9,
					Pattern: workload.Uniform, Queries: benchOpts.Queries, Seed: benchOpts.Seed,
					Widths: []int{256, 512},
				})
				if err != nil {
					b.Fatal(err)
				}
				var v256, v512 float64
				for _, m := range r.Vector {
					if m.Choice.Width == 256 {
						v256 = m.LookupsPerSec
					} else {
						v512 = m.LookupsPerSec
					}
				}
				b.ReportMetric(v512/v256, "512/256-ratio")
			}
		})
	}
}

// BenchmarkFig8SkylakeVsCascadeLake regenerates Fig. 8 (Case Study ④): the
// node-generation gain for the vertical design.
func BenchmarkFig8SkylakeVsCascadeLake(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var thr [2]float64
		for j, model := range []*arch.Model{arch.SkylakeClusterA(), arch.CascadeLake()} {
			r, err := core.Run(core.Params{
				Arch: model, N: 3, M: 1, KeyBits: 32, ValBits: 32,
				TableBytes: 1 << 20, LoadFactor: 0.9, HitRate: 0.9,
				Pattern: workload.Uniform, Queries: benchOpts.Queries, Seed: benchOpts.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			best, _ := r.Best()
			thr[j] = best.LookupsPerSec
		}
		b.ReportMetric(thr[1]/thr[0], "CLX/SKX-ratio")
	}
}

// BenchmarkFig9VerticalOnBCHT regenerates Fig. 9 (Case Study ⑤): vertical
// SIMD over a (2,2) BCHT vs the 2-way non-bucketized table.
func BenchmarkFig9VerticalOnBCHT(b *testing.B) {
	model := arch.SkylakeClusterA()
	for i := 0; i < b.N; i++ {
		var thr [2]float64
		for j, m := range []int{1, 2} {
			r, err := core.Run(core.Params{
				Arch: model, N: 2, M: m, KeyBits: 32, ValBits: 32,
				TableBytes: 1 << 20, LoadFactor: 0.85, HitRate: 0.9,
				Pattern: workload.Uniform, Queries: benchOpts.Queries, Seed: benchOpts.Seed,
				Widths: []int{512}, Approaches: []core.Approach{core.Vertical, core.VerticalHybrid},
			})
			if err != nil {
				b.Fatal(err)
			}
			best, _ := r.Best()
			thr[j] = best.LookupsPerSec
		}
		b.ReportMetric(thr[0]/thr[1], "m1/m2-slowdown")
	}
}

// BenchmarkFig11aMultiGet regenerates Fig. 11a: server-side Get throughput
// gain of the SIMD backends over MemC3 at batch 16.
func BenchmarkFig11aMultiGet(b *testing.B) {
	for _, backend := range experiments.KVSBackends() {
		b.Run(backend, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunKVS(backend, 16, kvsBenchOpts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(16/res.Breakdown.Lookup/1e6, "MGet-lookup-Mkeys/s")
				b.ReportMetric(res.AvgLatency*1e6, "e2e-avg-us")
			}
		})
	}
}

// BenchmarkFig11bPhaseBreakdown regenerates Fig. 11b: the server data
// access phase total for each backend at batch 64.
func BenchmarkFig11bPhaseBreakdown(b *testing.B) {
	for _, backend := range experiments.KVSBackends() {
		b.Run(backend, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunKVS(backend, 64, kvsBenchOpts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Breakdown.Total()*1e6, "data-access-us")
				b.ReportMetric(res.Breakdown.Lookup*1e6, "lookup-us")
			}
		})
	}
}

// BenchmarkFleetStudyPoint regenerates one point of the fleet-scale
// replication study: an 8-server, R=3 fleet under open-loop arrivals,
// quorum writes and fault-driven membership churn (rebalance storms).
func BenchmarkFleetStudyPoint(b *testing.B) {
	opts := experiments.FleetOptions{
		KVSOptions: experiments.KVSOptions{
			Items: 20000, Workers: 4, Clients: 8, Requests: 1200,
			Batches: []int{16}, Seed: 7,
		},
		WriteFraction: 0.05,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.FleetStudyPoint(8, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Epochs == 0 {
			b.Fatal("fleet benchmark ran without membership churn")
		}
		b.ReportMetric(res.GoodputKeys/1e6, "goodput-Mkeys/s")
		b.ReportMetric(res.P99Latency*1e6, "p99-us")
	}
}

// BenchmarkParallelFleetScaling runs the same fleet point on the partitioned
// engine at 1, 2, 4 and 8 host workers. sim-Mlookups/s is simulated key
// lookups completed per host-second; on a multicore host it scales with the
// worker count (the artifacts stay byte-identical, pinned by the fleet and
// overload golden tests), while on a single-core host it exposes the
// window-synchronization overhead.
func BenchmarkParallelFleetScaling(b *testing.B) {
	opts := experiments.FleetOptions{
		KVSOptions: experiments.KVSOptions{
			Items: 20000, Workers: 4, Clients: 8, Requests: 1200,
			Batches: []int{16}, Seed: 7,
		},
		WriteFraction: 0.05,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("simworkers=%d", workers), func(b *testing.B) {
			o := opts
			o.SimWorkers = workers
			lookups := 0.0
			for i := 0; i < b.N; i++ {
				res, err := experiments.FleetStudyPoint(8, o)
				if err != nil {
					b.Fatal(err)
				}
				if res.Epochs == 0 {
					b.Fatal("fleet benchmark ran without membership churn")
				}
				lookups += float64(res.Requests) * float64(res.BatchSize)
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(lookups/s/1e6, "sim-Mlookups/s")
			}
		})
	}
}

// BenchmarkOverloadStudyPoint regenerates the stressiest cell of the
// metastable-overload study: a 2x-capacity open-loop run with the full
// overload controls on (admission-bounded queues with deadlines, retry
// budgets, hedged reads). The goodput metric guards the graceful-
// degradation claim in the performance trajectory.
func BenchmarkOverloadStudyPoint(b *testing.B) {
	opts := experiments.OverloadOptions{
		KVSOptions: experiments.KVSOptions{
			// Batch 64 keeps the per-message NIC overhead amortized so the
			// servers' worker pools — not their response-send NICs — are the
			// saturated resource the admission queue protects; 32 open-loop
			// client endpoints keep the client-side NICs out of saturation
			// at 2x offered load.
			Items: 20000, Workers: 4, Clients: 32, Requests: 1200,
			Batches: []int{64}, Seed: 7,
		},
		Servers:     4,
		Replication: 2,
		Multipliers: []float64{2},
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.OverloadStudyResult(opts)
		if err != nil {
			b.Fatal(err)
		}
		on2 := res.Points[len(res.Points)-1]
		if on2.Results.ShedQueueFull == 0 {
			b.Fatal("overload benchmark ran without admission sheds")
		}
		b.ReportMetric(on2.Results.GoodputKeys/1e6, "goodput-Mkeys/s")
		b.ReportMetric(on2.Results.P99Latency*1e6, "p99-us")
	}
}

// BenchmarkProfilerOverhead pins the hot-path cost of the cycle-account
// profiler in isolation: the same charged vertical-lookup workload runs on
// a bare engine and on one with a profiler attached (no trace probes — those
// have their own, larger, opt-in cost), and the profiled engine's simulator
// throughput must stay within 10% of the bare engine's. The two sides run
// interleaved, best-of-N per side, so host-clock noise shifts both equally
// instead of skewing the ratio; the first profiled pass also resolves the
// (phase, leaf) handle caches, after which the steady state is
// allocation-free (pinned by TestProfilerSteadyStateAllocFree).
func BenchmarkProfilerOverhead(b *testing.B) {
	model := arch.SkylakeClusterA()
	layout, err := cuckoo.LayoutForBytes(3, 1, 32, 32, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	space := mem.NewAddressSpace()
	table, err := cuckoo.New(space, layout, benchOpts.Seed)
	if err != nil {
		b.Fatal(err)
	}
	stored, _ := table.FillRandom(0.9, newRand(benchOpts.Seed+1))
	gen, err := workload.New(stored, workload.Config{
		Pattern: workload.Uniform, HitRate: 0.9, KeyBits: 32, Seed: benchOpts.Seed + 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Keys(gen, 4*benchOpts.Queries)
	stream := cuckoo.NewStream(space, queries, 32)
	res := cuckoo.NewResultBuf(space, len(queries), 32)
	cfg := cuckoo.VerticalConfig{Width: 512}

	// newEngine warms a fresh engine like measure() does: caches loaded,
	// one uncharged pass to grow scratch (and, when profiled, a charged
	// pass below resolves the handle caches before the timed reps).
	newEngine := func(p *prof.Profiler) *engine.Engine {
		e := engine.New(model, 1)
		e.SetCharging(false)
		e.Cache.Touch(table.Arena.Base(), table.Arena.Size())
		table.LookupVerticalBatch(e, stream, 0, len(queries), cfg, res, nil)
		e.SetCharging(true)
		e.SetProfiler(p)
		table.LookupVerticalBatch(e, stream, 0, len(queries), cfg, res, nil)
		return e
	}
	pass := func(e *engine.Engine) float64 {
		start := obs.WallNow()
		table.LookupVerticalBatch(e, stream, 0, len(queries), cfg, res, nil)
		secs := obs.WallSince(start).Seconds()
		if secs <= 0 {
			return 0
		}
		return float64(len(queries)) / secs
	}
	for i := 0; i < b.N; i++ {
		bareEng := newEngine(nil)
		profEng := newEngine(prof.NewSet().Profiler("cycles", "bench"))
		var bare, profiled float64
		for rep := 0; rep < 6; rep++ {
			bare = max(bare, pass(bareEng))
			profiled = max(profiled, pass(profEng))
		}
		if bare <= 0 || profiled <= 0 {
			b.Fatal("no throughput measured")
		}
		overhead := 1 - profiled/bare
		b.ReportMetric(overhead*100, "overhead-pct")
		b.ReportMetric(profiled/1e6, "sim-Mlookups/s")
		if overhead > 0.10 {
			b.Fatalf("profiler overhead %.1f%% exceeds the 10%% budget", overhead*100)
		}
	}
}

// newRand is a tiny helper for deterministic benchmark inputs.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
