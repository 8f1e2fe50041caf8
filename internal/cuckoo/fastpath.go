package cuckoo

import (
	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/vec"
)

// lookupScratch holds the reusable buffers of the charged lookup templates,
// one set per Table. Every slice grows to its high-water mark on first use
// and is reused verbatim afterwards, so the steady-state lookup loops run
// allocation-free (pinned by TestLookupTemplatesAllocFree). Charged lookups
// on one Table must not run concurrently — the single-core engine model
// already imposes that — so one scratch set suffices.
type lookupScratch struct {
	offs    []int    // horizontal: key-block offsets of the probed buckets
	buckets []int    // horizontal / AMAC: bucket indices of the group
	keys    []uint64 // vertical / AMAC: the group's query keys
	vals    []uint64 // vertical: gathered payloads per lane
	koffs   []int    // vertical: key offset per lane
	voffs   []int    // vertical: payload offset per lane
	goffs   []int    // gather helpers: per-chunk lane offsets
	glanes  []uint64 // gather helpers: the lanes each gather returns

	// regBuf is the byte image of the horizontal template's bucket register:
	// loadBuckets assembles it and extractKeys decodes keys from it. The 8
	// bytes past the widest (512-bit) register let extractKeys read the last
	// key with a full 64-bit load.
	regBuf [vec.MaxBytes + 8]byte
}

// intScratch returns a length-n int slice backed by *buf, growing the backing
// array only when the high-water mark rises.
func intScratch(buf *[]int, n int) []int {
	if cap(*buf) < n {
		//lint:ignore alloclint grows only when the high-water mark rises; steady state reuses the backing array
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// u64Scratch is intScratch for uint64 slices.
func u64Scratch(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		//lint:ignore alloclint grows only when the high-water mark rises; steady state reuses the backing array
		*buf = make([]uint64, n)
	}
	return (*buf)[:n]
}

// templateBundles caches the precomputed engine cost bundles for the lookup
// templates' fixed charge sequences at one (model, width) pair. The bundles
// resolve every per-op cost once, so the hot loops charge them with one
// batched add per sequence instead of a table lookup per op; the engine's
// fast path adds the item costs in exactly the order the unbatched calls
// would, keeping charged totals bit-identical.
type templateBundles struct {
	model *arch.Model
	width int

	// hashAll is the horizontal template's amortized bucket calculation: N
	// packed multiply-shift hashes (mul, shift, and — engine.VecHash) charged
	// once per vector-full of upcoming keys.
	hashAll *engine.CostBundle
	// hashOne is a single packed hash (the vertical template's per-way
	// vec_calc_hash).
	hashOne *engine.CostBundle
	// probeTail is the per-probe movemask + scalar branch both vector
	// templates issue after each packed compare.
	probeTail *engine.CostBundle
}

// bundlesFor returns the table's cached bundles for (m, width), building them
// on first use. The cache is a linear scan over a handful of entries — each
// measured variant uses exactly one — and the warm-up pass any measurement
// (and testing.AllocsPerRun) performs populates it before the measured loop.
func (t *Table) bundlesFor(m *arch.Model, width int) *templateBundles {
	for _, b := range t.bundles {
		if b.model == m && b.width == width {
			return b
		}
	}
	// Warm-up: the bundle cache is built on first use per (model, width)
	// pair; every later lookup takes the linear scan above and allocates
	// nothing.
	//lint:ignore alloclint warm-up bundle-cache build, first use per (model, width) only
	items := make([]engine.CostItem, 0, 3*t.L.N)
	for i := 0; i < t.L.N; i++ {
		//lint:ignore alloclint append stays within the capacity reserved one line up
		items = append(items,
			engine.CostItem{Class: arch.OpVecMul, Width: width},
			engine.CostItem{Class: arch.OpVecShift, Width: width},
			engine.CostItem{Class: arch.OpVecAnd, Width: width},
		)
	}
	//lint:ignore alloclint warm-up bundle-cache build, first use per (model, width) only
	b := &templateBundles{
		model:   m,
		width:   width,
		hashAll: engine.NewCostBundle(m, items),
		hashOne: engine.NewCostBundle(m, []engine.CostItem{
			{Class: arch.OpVecMul, Width: width},
			{Class: arch.OpVecShift, Width: width},
			{Class: arch.OpVecAnd, Width: width},
		}),
		probeTail: engine.NewCostBundle(m, []engine.CostItem{
			{Class: arch.OpVecMovemask, Width: width},
			{Class: arch.OpScalarBranch, Width: arch.WidthScalar},
		}),
	}
	//lint:ignore alloclint warm-up bundle-cache build, first use per (model, width) only
	t.bundles = append(t.bundles, b)
	return b
}
