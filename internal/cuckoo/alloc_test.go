package cuckoo

import (
	"math/rand"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

// allocSetup builds a filled table plus query stream for the allocation pins.
func allocSetup(t *testing.T, l Layout, nq int) (*Table, *Stream, *ResultBuf, *engine.Engine) {
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
		queries[i] = keys[rng.Intn(len(keys))]
	}
	return tab, NewStream(space, queries, l.KeyBits), NewResultBuf(space, nq, l.ValBits), engine.New(arch.SkylakeClusterA(), 1)
}

// TestLookupTemplatesAllocFree pins the zero-allocation property of every
// charged lookup template's steady-state loop: after the warm-up call
// AllocsPerRun itself performs (which grows the per-table scratch and builds
// the cost bundles), a measured batch must not allocate at all. This is the
// guardrail for the sim-speed work — a regression here means a make/map/box
// crept back into the hot path.
func TestLookupTemplatesAllocFree(t *testing.T) {
	const nq = 256
	cases := []struct {
		name   string
		layout Layout
		run    func(tab *Table, e *engine.Engine, s *Stream, res *ResultBuf)
	}{
		{
			name:   "scalar",
			layout: Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12},
			run: func(tab *Table, e *engine.Engine, s *Stream, res *ResultBuf) {
				tab.LookupScalarBatch(e, s, 0, nq, res, nil)
			},
		},
		{
			name:   "horizontal",
			layout: Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12},
			run: func(tab *Table, e *engine.Engine, s *Stream, res *ResultBuf) {
				tab.LookupHorizontalBatch(e, s, 0, nq, HorizontalConfig{Width: 256, BucketsPerVec: 1}, res, nil)
			},
		},
		{
			name:   "vertical",
			layout: Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 12},
			run: func(tab *Table, e *engine.Engine, s *Stream, res *ResultBuf) {
				tab.LookupVerticalBatch(e, s, 0, nq, VerticalConfig{Width: 512}, res, nil)
			},
		},
		{
			name:   "amac",
			layout: Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12},
			run: func(tab *Table, e *engine.Engine, s *Stream, res *ResultBuf) {
				tab.LookupAMACBatch(e, s, 0, nq, AMACConfig{}, res, nil)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab, s, res, e := allocSetup(t, tc.layout, nq)
			allocs := testing.AllocsPerRun(10, func() {
				tc.run(tab, e, s, res)
			})
			if allocs != 0 {
				t.Fatalf("%s template allocates %.1f times per batch; want 0", tc.name, allocs)
			}
		})
	}
}

// TestInsertSteadyStateAllocFree pins the fill path: once the BFS scratch
// (the visited set and the reusable queue) has reached its high-water mark,
// further inserts — evictions included — must not allocate. The 3-way, m=1
// table is filled to failure, so its searches run deep: failed ones to the
// cap, and successful ones past the modelled-count bound into the count-only
// continuation (checked by replaying the same inserts on the reference).
func TestInsertSteadyStateAllocFree(t *testing.T) {
	cases := []struct {
		name   string
		layout Layout
		lf     float64
		deep   bool
	}{
		{"bcht-2x4", Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 10}, 0.93, false},
		{"3way-m1", Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 12}, 1.0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.layout
			// insertThenDelete returns the steady-state step: each call
			// inserts the next 64 fresh keys, deleting each again if it
			// went in. AllocsPerRun reports whole allocations per call, so
			// a call must run many searches for one allocating search
			// path to show.
			insertThenDelete := func(tab *Table, insert func(key, val uint64) error) func() {
				next := uint64(1 << 40)
				return func() {
					for i := 0; i < 64; i++ {
						next += 2
						key := next & l.KeyMask() &^ 1
						if key == 0 {
							key = 2
						}
						if err := insert(key, 1); err == nil {
							tab.Delete(key)
						}
					}
				}
			}
			build := func() *Table {
				tab, err := New(mem.NewAddressSpace(), l, 1)
				if err != nil {
					t.Fatal(err)
				}
				// Push occupancy high enough that inserts regularly run the BFS.
				tab.FillRandom(tc.lf, rand.New(rand.NewSource(3)))
				if tc.deep && tab.LoadFactor() < 0.9 {
					t.Fatalf("fill reached load factor %.3f, want ≥ 0.9", tab.LoadFactor())
				}
				return tab
			}
			const runs = 50
			if tc.deep {
				ref := newRefTable(build())
				step := insertThenDelete(ref.Table, ref.insert)
				for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call plus runs
					step()
				}
				if f := ref.found; f.dequeuedDeep+f.swept+f.sweptPastCap == 0 {
					t.Fatalf("no insert ran the count-only continuation: %+v", f)
				}
			}
			tab := build()
			allocs := testing.AllocsPerRun(runs, insertThenDelete(tab, tab.Insert))
			if allocs != 0 {
				t.Fatalf("steady-state insert allocates %.1f times; want 0", allocs)
			}
		})
	}
}
