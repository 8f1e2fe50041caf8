package simdhtbench_test

import (
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/core"
	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/experiments"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/workload"
)

// Ablation benchmarks isolate the design choices DESIGN.md calls out: the
// fewer-wider-gathers packing, the split-bucket arrangement, the AVX-512
// license frequencies, and update-traffic erosion. Each reports the ablated
// quantity as a custom metric.

// BenchmarkAblationGatherPacking contrasts the packed 64-bit gather path
// ((32,32) pairs fetch key+payload together) against the unpacked path that
// (64,64) keys are forced onto — the mechanism behind Observation ②.
func BenchmarkAblationGatherPacking(b *testing.B) {
	model := arch.SkylakeClusterA()
	for i := 0; i < b.N; i++ {
		packed, err := core.Run(core.Params{
			Arch: model, N: 3, M: 1, KeyBits: 32, ValBits: 32,
			TableBytes: 512 << 10, LoadFactor: 0.9, HitRate: 0.9,
			Pattern: workload.Uniform, Queries: benchOpts.Queries, Seed: 1,
			Widths: []int{512},
		})
		if err != nil {
			b.Fatal(err)
		}
		unpacked, err := core.Run(core.Params{
			Arch: model, N: 3, M: 1, KeyBits: 64, ValBits: 64,
			TableBytes: 512 << 10, LoadFactor: 0.9, HitRate: 0.9,
			Pattern: workload.Uniform, Queries: benchOpts.Queries, Seed: 1,
			Widths: []int{512},
		})
		if err != nil {
			b.Fatal(err)
		}
		p, _ := packed.Best()
		u, _ := unpacked.Best()
		b.ReportMetric(p.LookupsPerSec/u.LookupsPerSec, "packed/unpacked")
	}
}

// BenchmarkAblationSplitBucket measures the keys-only probing win of the
// split-bucket arrangement for the (2,8) table of 16-bit keys.
func BenchmarkAblationSplitBucket(b *testing.B) {
	model := arch.SkylakeClusterA()
	for i := 0; i < b.N; i++ {
		var thr [2]float64
		for j, split := range []bool{false, true} {
			r, err := core.Run(core.Params{
				Arch: model, N: 2, M: 8, KeyBits: 16, ValBits: 32, Split: split,
				TableBytes: 512 << 10, LoadFactor: 0.9, HitRate: 0.9,
				Pattern: workload.Uniform, Queries: benchOpts.Queries, Seed: 1,
				Approaches: []core.Approach{core.Horizontal},
			})
			if err != nil {
				b.Fatal(err)
			}
			best, _ := r.Best()
			thr[j] = best.LookupsPerSec
		}
		b.ReportMetric(thr[1]/thr[0], "split/interleaved")
	}
}

// BenchmarkAblationMixedWorkload reports the SIMD speedup under growing
// update fractions (the Section VII future-work study).
func BenchmarkAblationMixedWorkload(b *testing.B) {
	model := arch.SkylakeClusterA()
	for _, uf := range []float64{0, 0.25} {
		name := "read-only"
		if uf > 0 {
			name = "25pct-updates"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.Run(core.Params{
					Arch: model, N: 3, M: 1, KeyBits: 32, ValBits: 32,
					TableBytes: 1 << 20, LoadFactor: 0.9, HitRate: 0.9,
					Pattern: workload.Uniform, Queries: benchOpts.Queries,
					UpdateFraction: uf, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				best, _ := r.Best()
				b.ReportMetric(r.Speedup(best), "speedup")
			}
		})
	}
}

// BenchmarkAblationEvictionSearch reports the BFS eviction search's work at
// high occupancy — the insertion-side price of the >90% load factors.
func BenchmarkAblationEvictionSearch(b *testing.B) {
	l := cuckoo.Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12}
	for i := 0; i < b.N; i++ {
		space := mem.NewAddressSpace()
		t, err := cuckoo.New(space, l, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		e := engine.New(arch.SkylakeClusterA(), 1)
		key := uint64(2)
		inserted, evictions := 0, 0
		for {
			key += 2
			if err := t.InsertCharged(e, key, 1); err != nil {
				break
			}
			inserted++
			if _, moves := t.LastEvictionStats(); moves > 0 {
				evictions++
			}
		}
		b.ReportMetric(t.LoadFactor(), "max-LF")
		b.ReportMetric(float64(evictions)/float64(inserted), "eviction-rate")
		b.ReportMetric(e.Cycles()/float64(inserted), "cycles/insert")
	}
}

// BenchmarkSimulatorOverhead measures the wall-clock cost of the simulation
// substrate itself: how many simulated lookups per real second the engine
// sustains (useful for sizing experiment query counts).
func BenchmarkSimulatorOverhead(b *testing.B) {
	space := mem.NewAddressSpace()
	l := cuckoo.Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 12}
	t, err := cuckoo.New(space, l, 1)
	if err != nil {
		b.Fatal(err)
	}
	keys, _ := t.FillRandom(0.9, newRand(2))
	queries := make([]uint64, 4096)
	r := newRand(3)
	for i := range queries {
		queries[i] = keys[r.Intn(len(keys))]
	}
	stream := cuckoo.NewStream(space, queries, 32)
	res := cuckoo.NewResultBuf(space, len(queries), 32)
	e := engine.New(arch.SkylakeClusterA(), 1)
	cfg := cuckoo.VerticalConfig{Width: 512}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.LookupVerticalBatch(e, stream, 0, len(queries), cfg, res, nil)
	}
	b.ReportMetric(float64(len(queries)), "lookups/op")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(len(queries))*float64(b.N)/s/1e6, "sim-Mlookups/s")
	}
}

// BenchmarkClusterScaling reports the aggregate-throughput scaling of the
// consistent-hashing cluster at 1 vs 4 servers.
func BenchmarkClusterScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.ClusterStudy(experiments.KVSOptions{
			Items: 30000, Workers: 26, Clients: 26, Requests: 400, Batches: []int{16}, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if tableRows(tab) != 3 {
			b.Fatal("unexpected cluster table shape")
		}
	}
}
