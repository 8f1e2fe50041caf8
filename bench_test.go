// Package simdhtbench_test holds the top-level benchmark harness:
// BenchmarkArtifacts regenerates every table and figure both CLIs print by
// name, one sub-benchmark per registry entry, and a few benchmarks time
// single study points and the profiler's overhead.
//
// Each benchmark executes the same experiment runners the cmd/simdhtbench
// and cmd/kvsbench harnesses use (internal/experiments), at a reduced scale
// so `go test -bench=.` completes quickly; the command-line harnesses
// regenerate the full-size tables.
package simdhtbench_test

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"simdhtbench/internal/arch"
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

// kvsBenchOpts trims the Section VI stack for benchmark iterations, at
// Fig. 11's two batch sizes.
var kvsBenchOpts = experiments.KVSOptions{Items: 60000, Workers: 26, Clients: 26, Requests: 600, Batches: []int{16, 64}, Seed: 7}

// benchInvocation returns a fresh invocation at benchmark scale: benchOpts
// for simdhtbench's artifacts and kvsBenchOpts for kvsbench's, the fleet
// and overload studies keeping their default shapes. An invocation
// computes each shared result once, so every iteration takes a new one.
func benchInvocation() *experiments.Invocation {
	fleet, overload := experiments.DefaultFleetOptions(), experiments.DefaultOverloadOptions()
	fleet.KVSOptions, overload.KVSOptions = kvsBenchOpts, kvsBenchOpts
	return &experiments.Invocation{Options: benchOpts, KVS: kvsBenchOpts, Fleet: fleet, Overload: overload}
}

// discard prints artifacts as a CLI does without -csv, to io.Discard.
type discard struct{}

func (discard) Emit(t *report.Table)    { t.Fprint(io.Discard) }
func (discard) EmitGrid(g *report.Grid) { g.Fprint(io.Discard) }
func (discard) EmitText(s string)       { io.WriteString(io.Discard, s) }

// BenchmarkArtifacts regenerates every artifact of simdhtbench's registry
// (experiments.MicroArtifacts) and then kvsbench's (KVSArtifacts), one
// sub-benchmark per entry named after it, so an artifact added to a
// registry gets a benchmark. Each iteration prints the entry under a fresh
// benchInvocation: Fig. 11a and 11b each run Fig. 11's whole sweep.
func BenchmarkArtifacts(b *testing.B) {
	for _, reg := range []experiments.Registry{experiments.MicroArtifacts, experiments.KVSArtifacts} {
		for _, a := range reg {
			b.Run(a.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := a.Print(benchInvocation(), discard{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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
		FleetSizes:    []int{8},
		Replication:   3,
		ArrivalRate:   2e5,
		WriteFraction: 0.05,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := experiments.FleetStudyResult(opts)
		if err != nil {
			b.Fatal(err)
		}
		res := results[0]
		if res.Epochs == 0 {
			b.Fatal("fleet benchmark ran without membership churn")
		}
		b.ReportMetric(res.GoodputKeys/1e6, "goodput-Mkeys/s")
		b.ReportMetric(res.P99Latency*1e6, "p99-us")
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
		Multipliers: []float64{2},
	}
	b.ReportAllocs()
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
