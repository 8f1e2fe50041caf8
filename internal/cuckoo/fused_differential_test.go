package cuckoo

import (
	"maps"
	"math"
	"math/rand"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

// fusedSetup builds one filled table, query stream and result buffer shared
// by both engines of a differential run. Sharing the result buffer matters:
// each engine carries its own cache hierarchy, so identical store addresses
// make the cache-charged cycles comparable bit for bit, whereas two buffers
// at different addresses would map to different sets.
func fusedSetup(t *testing.T, l Layout, nq int) (*Table, *Stream, *ResultBuf) {
	t.Helper()
	space := mem.NewAddressSpace()
	tab, err := New(space, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys, _ := tab.FillRandom(0.9, rng)
	queries := make([]uint64, nq)
	for i := range queries {
		if rng.Intn(10) == 0 {
			queries[i] = (rng.Uint64() & tab.L.KeyMask()) | 1 // odd = miss
		} else {
			queries[i] = keys[rng.Intn(len(keys))]
		}
	}
	return tab, NewStream(space, queries, l.KeyBits), NewResultBuf(space, nq, l.ValBits)
}

// snapshotResults reads every result slot out of the shared buffer.
func snapshotResults(res *ResultBuf, nq, valBits int) []uint64 {
	out := make([]uint64, nq)
	for i := range out {
		out[i] = res.Arena.ReadUint(res.Off(i), valBits)
	}
	return out
}

// TestFusedChargingBitIdentical is the old-path-vs-fast-path differential
// test over whole lookup templates: the same batch charged with fused
// (batched) charging and with SetFusedCharging(false) — which forces every
// bundle back through per-op Charge — must agree on hits, charged cycles to
// the last bit, op counts, and the per-class cycles and op counts.
func TestFusedChargingBitIdentical(t *testing.T) {
	const nq = 512
	model := arch.SkylakeClusterA()

	cases := []struct {
		name   string
		layout Layout
		run    func(tab *Table, e *engine.Engine, s *Stream, res *ResultBuf) int
	}{
		{
			name:   "horizontal-2x4-256",
			layout: Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12},
			run: func(tab *Table, e *engine.Engine, s *Stream, res *ResultBuf) int {
				return tab.LookupHorizontalBatch(e, s, 0, nq, HorizontalConfig{Width: 256, BucketsPerVec: 1}, res, nil)
			},
		},
		{
			name:   "horizontal-2x4-512-2bpv",
			layout: Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12},
			run: func(tab *Table, e *engine.Engine, s *Stream, res *ResultBuf) int {
				return tab.LookupHorizontalBatch(e, s, 0, nq, HorizontalConfig{Width: 512, BucketsPerVec: 2}, res, nil)
			},
		},
		{
			name:   "vertical-3way-512",
			layout: Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 12},
			run: func(tab *Table, e *engine.Engine, s *Stream, res *ResultBuf) int {
				return tab.LookupVerticalBatch(e, s, 0, nq, VerticalConfig{Width: 512}, res, nil)
			},
		},
		{
			name:   "vertical-hybrid-2x2-512",
			layout: Layout{N: 2, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 12},
			run: func(tab *Table, e *engine.Engine, s *Stream, res *ResultBuf) int {
				return tab.LookupVerticalBatch(e, s, 0, nq, VerticalConfig{Width: 512}, res, nil)
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab, s, res := fusedSetup(t, tc.layout, nq)

			fused := engine.New(model, 1)
			plain := engine.New(model, 1)
			plain.SetFusedCharging(false)

			hitsFused := tc.run(tab, fused, s, res)
			gotResults := snapshotResults(res, nq, tab.L.ValBits)
			hitsPlain := tc.run(tab, plain, s, res)

			if hitsFused != hitsPlain {
				t.Fatalf("hits diverge: fused %d vs per-op %d", hitsFused, hitsPlain)
			}
			if math.Float64bits(fused.Cycles()) != math.Float64bits(plain.Cycles()) {
				t.Fatalf("cycles diverge: fused %x (%.17g) vs per-op %x (%.17g)",
					math.Float64bits(fused.Cycles()), fused.Cycles(),
					math.Float64bits(plain.Cycles()), plain.Cycles())
			}
			if fused.Ops() != plain.Ops() {
				t.Fatalf("ops diverge: %d vs %d", fused.Ops(), plain.Ops())
			}
			if want, got := opCounts(plain), opCounts(fused); !maps.Equal(want, got) {
				t.Fatalf("per-class op counts diverge: fused %v vs per-op %v", got, want)
			}
			if math.Float64bits(fused.MemCycles()) != math.Float64bits(plain.MemCycles()) {
				t.Fatalf("mem cycles diverge: %.17g vs %.17g", fused.MemCycles(), plain.MemCycles())
			}
			want := opCycles(plain)
			got := opCycles(fused)
			if len(want) != len(got) {
				t.Fatalf("op-class sets diverge: %v vs %v", want, got)
			}
			for c, cy := range want {
				if math.Float64bits(got[c]) != math.Float64bits(cy) {
					t.Fatalf("class %v diverges: fused %.17g vs per-op %.17g", c, got[c], cy)
				}
			}
			wantResults := snapshotResults(res, nq, tab.L.ValBits)
			for i := 0; i < nq; i++ {
				if gotResults[i] != wantResults[i] {
					t.Fatalf("result %d diverges: %#x vs %#x", i, gotResults[i], wantResults[i])
				}
			}
		})
	}
}

// opCycles collects an engine's per-class breakdown via ForEachOpCycle.
func opCycles(e *engine.Engine) map[arch.OpClass]float64 {
	out := make(map[arch.OpClass]float64)
	e.ForEachOpCycle(func(c arch.OpClass, cy float64) { out[c] = cy })
	return out
}

// opCounts collects an engine's per-class op counts for every charged class.
func opCounts(e *engine.Engine) map[arch.OpClass]uint64 {
	out := make(map[arch.OpClass]uint64)
	e.ForEachOpCycle(func(c arch.OpClass, _ float64) { out[c] = e.OpCount(c) })
	return out
}
