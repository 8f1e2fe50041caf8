package cuckoo

import (
	"math/rand"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

// harness builds a filled table plus a query stream mixing hits and misses
// and returns everything needed to cross-check lookup variants.
type harness struct {
	space   *mem.AddressSpace
	table   *Table
	stream  *Stream
	res     *ResultBuf
	queries []uint64
	eng     *engine.Engine
}

func newHarness(t *testing.T, l Layout, nq int, seed int64) *harness {
	t.Helper()
	space := mem.NewAddressSpace()
	tb, err := New(space, l, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	keys, lf := tb.FillRandom(0.85, rng)
	if lf < 0.5 {
		t.Fatalf("fill stalled at %.2f for %s", lf, l)
	}
	queries := make([]uint64, nq)
	for i := range queries {
		if rng.Float64() < 0.8 {
			queries[i] = keys[rng.Intn(len(keys))]
		} else {
			queries[i] = (rng.Uint64() & l.KeyMask()) | 1 // guaranteed miss
		}
	}
	return &harness{
		space:   space,
		table:   tb,
		stream:  NewStream(space, queries, l.KeyBits),
		res:     NewResultBuf(space, nq, l.ValBits),
		queries: queries,
		eng:     engine.New(arch.SkylakeClusterA(), 1),
	}
}

// checkAgainstNative verifies that found/res agree with the native Lookup
// for every query.
func (h *harness) checkAgainstNative(t *testing.T, name string, found []bool) {
	t.Helper()
	for i, q := range h.queries {
		wantV, wantOK := h.table.Lookup(q)
		if found[i] != wantOK {
			t.Fatalf("%s: query %d (key %d): found=%v, native=%v", name, i, q, found[i], wantOK)
		}
		if wantOK {
			if got := h.res.Get(i); got != wantV {
				t.Fatalf("%s: query %d (key %d): value %d, native %d", name, i, q, got, wantV)
			}
		}
	}
}

func TestScalarBatchMatchesNative(t *testing.T) {
	layouts := []Layout{
		{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8},
		{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 10},
		{N: 4, M: 1, KeyBits: 64, ValBits: 64, BucketBits: 9},
		{N: 2, M: 8, KeyBits: 16, ValBits: 32, BucketBits: 7},
	}
	for _, l := range layouts {
		found := make([]bool, 300)
		h := newHarness(t, l, 300, 21)
		hits := h.table.LookupScalarBatch(h.eng, h.stream, 0, 300, h.res, found)
		h.checkAgainstNative(t, "scalar/"+l.String(), found)
		n := 0
		for _, f := range found {
			if f {
				n++
			}
		}
		if hits != n {
			t.Errorf("scalar hits = %d, found count = %d", hits, n)
		}
		if h.eng.Cycles() == 0 {
			t.Error("scalar batch charged no cycles")
		}
	}
}

func TestHorizontalBatchMatchesNative(t *testing.T) {
	cases := []struct {
		l     Layout
		width int
	}{
		{Layout{N: 2, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 9}, 128},
		{Layout{N: 2, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 9}, 256},
		{Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8}, 256},
		{Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8}, 512},
		{Layout{N: 3, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8}, 512},
		{Layout{N: 2, M: 8, KeyBits: 32, ValBits: 32, BucketBits: 7}, 512},
		{Layout{N: 2, M: 8, KeyBits: 16, ValBits: 32, BucketBits: 8}, 512},
		{Layout{N: 3, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 9}, 256},
	}
	for _, c := range cases {
		ok, bpv := HorVValid(c.width, c.l)
		if !ok {
			t.Fatalf("HorVValid rejected %s at %d bits", c.l, c.width)
		}
		h := newHarness(t, c.l, 300, 33)
		found := make([]bool, 300)
		cfg := HorizontalConfig{Width: c.width, BucketsPerVec: bpv}
		h.table.LookupHorizontalBatch(h.eng, h.stream, 0, 300, cfg, h.res, found)
		h.checkAgainstNative(t, "horizontal/"+c.l.String(), found)
	}
}

func TestHorizontalOneBucketPerVec(t *testing.T) {
	// Optimistic probing (bpv=1) must agree with native even when the width
	// could hold more buckets.
	l := Layout{N: 2, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 9}
	h := newHarness(t, l, 200, 44)
	found := make([]bool, 200)
	cfg := HorizontalConfig{Width: 256, BucketsPerVec: 1}
	h.table.LookupHorizontalBatch(h.eng, h.stream, 0, 200, cfg, h.res, found)
	h.checkAgainstNative(t, "horizontal-bpv1", found)
}

func TestVerticalBatchMatchesNative(t *testing.T) {
	cases := []struct {
		l     Layout
		width int
	}{
		{Layout{N: 2, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 10}, 256},
		{Layout{N: 2, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 10}, 512},
		{Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 10}, 512},
		{Layout{N: 4, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 10}, 256},
		{Layout{N: 3, M: 1, KeyBits: 64, ValBits: 64, BucketBits: 9}, 256},
		{Layout{N: 3, M: 1, KeyBits: 64, ValBits: 64, BucketBits: 9}, 512},
		{Layout{N: 2, M: 1, KeyBits: 16, ValBits: 16, BucketBits: 8}, 512},
		{Layout{N: 2, M: 1, KeyBits: 16, ValBits: 32, BucketBits: 8}, 512},
	}
	for _, c := range cases {
		h := newHarness(t, c.l, 301, 55) // odd count exercises the remainder group
		found := make([]bool, 301)
		cfg := VerticalConfig{Width: c.width}
		h.table.LookupVerticalBatch(h.eng, h.stream, 0, 301, cfg, h.res, found)
		h.checkAgainstNative(t, "vertical/"+c.l.String(), found)
	}
}

func TestVerticalHybridOnBCHTMatchesNative(t *testing.T) {
	// Case Study ⑤: vertical template over bucketized layouts.
	cases := []Layout{
		{N: 2, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 9},
		{N: 3, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 8},
	}
	for _, l := range cases {
		h := newHarness(t, l, 250, 66)
		found := make([]bool, 250)
		h.table.LookupVerticalBatch(h.eng, h.stream, 0, 250, VerticalConfig{Width: 512}, h.res, found)
		h.checkAgainstNative(t, "hybrid/"+l.String(), found)
	}
}

func TestLookupSubrange(t *testing.T) {
	// Lookups must respect [from, from+n) windows, which the performance
	// engine uses to separate warm-up from measurement.
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8}
	h := newHarness(t, l, 300, 77)
	found := make([]bool, 100)
	h.table.LookupScalarBatch(h.eng, h.stream, 150, 100, h.res, found)
	for i := 0; i < 100; i++ {
		_, wantOK := h.table.Lookup(h.queries[150+i])
		if found[i] != wantOK {
			t.Fatalf("subrange query %d mismatch", i)
		}
	}
}

func TestHorVValid(t *testing.T) {
	cases := []struct {
		w    int
		n, m int
		k, v int
		ok   bool
		bpv  int
	}{
		{128, 2, 2, 32, 32, true, 1},
		{256, 2, 2, 32, 32, true, 2},
		{256, 2, 4, 32, 32, true, 1},
		{512, 2, 4, 32, 32, true, 2},
		{512, 2, 8, 32, 32, true, 1},
		{256, 2, 8, 32, 32, false, 0}, // bucket larger than vector
		{512, 3, 4, 32, 32, true, 2},  // capped below N
		{512, 2, 1, 32, 32, false, 0}, // not bucketized
		{512, 2, 8, 16, 32, true, 1},
		{256, 2, 8, 16, 32, false, 0},
	}
	for _, c := range cases {
		l := Layout{N: c.n, M: c.m, KeyBits: c.k, ValBits: c.v, BucketBits: 8}
		ok, bpv := HorVValid(c.w, l)
		if ok != c.ok || bpv != c.bpv {
			t.Errorf("HorVValid(%d, (%d,%d)x(%d,%d)) = (%v,%d), want (%v,%d)",
				c.w, c.n, c.m, c.k, c.v, ok, bpv, c.ok, c.bpv)
		}
	}
}

func TestVerVValid(t *testing.T) {
	cases := []struct {
		w    int
		k, v int
		ok   bool
		kpi  int
	}{
		{128, 32, 32, false, 0}, // no gather below AVX2
		{256, 32, 32, true, 8},
		{512, 32, 32, true, 16},
		{256, 64, 64, true, 4},
		{512, 64, 64, true, 8},
		{512, 16, 32, true, 32},
		{256, 16, 16, true, 16},
	}
	for _, c := range cases {
		l := Layout{N: 2, M: 1, KeyBits: c.k, ValBits: c.v, BucketBits: 8}
		ok, kpi := VerVValid(c.w, l)
		if ok != c.ok || kpi != c.kpi {
			t.Errorf("VerVValid(%d, k=%d v=%d) = (%v,%d), want (%v,%d)",
				c.w, c.k, c.v, ok, kpi, c.ok, c.kpi)
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	space := mem.NewAddressSpace()
	keys := []uint64{1, 2, 3, 0xFFFF}
	for _, bits := range []int{16, 32, 64} {
		s := NewStream(space, keys, bits)
		for i, k := range keys {
			if got := s.Key(i); got != k {
				t.Errorf("%d-bit stream key %d = %d, want %d", bits, i, got, k)
			}
		}
		if s.N != len(keys) {
			t.Errorf("stream N = %d", s.N)
		}
	}
}

func TestResultBuf(t *testing.T) {
	space := mem.NewAddressSpace()
	r := NewResultBuf(space, 8, 32)
	r.Arena.WriteUint(r.Off(3), 32, 99)
	if r.Get(3) != 99 {
		t.Error("result buffer round trip failed")
	}
	if r.Off(2) != 8 {
		t.Errorf("Off(2) = %d, want 8", r.Off(2))
	}
}

// TestVerticalMissesScanAllWays checks that a vertical batch of guaranteed
// misses returns no hits yet charges work for every hash way.
func TestVerticalMissesScanAllWays(t *testing.T) {
	l := Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 10}
	space := mem.NewAddressSpace()
	tb, _ := New(space, l, 7)
	rng := rand.New(rand.NewSource(7))
	tb.FillRandom(0.8, rng)
	miss := make([]uint64, 64)
	for i := range miss {
		miss[i] = uint64(rng.Uint32()) | 1
	}
	s := NewStream(space, miss, 32)
	res := NewResultBuf(space, 64, 32)
	e := engine.New(arch.SkylakeClusterA(), 1)
	found := make([]bool, 64)
	hits := tb.LookupVerticalBatch(e, s, 0, 64, VerticalConfig{Width: 512}, res, found)
	if hits != 0 {
		t.Fatalf("guaranteed misses returned %d hits", hits)
	}
	for _, f := range found {
		if f {
			t.Fatal("found flag set for a miss")
		}
	}
}

// enginForTest builds a single-core Skylake engine for table tests.
func enginForTest() *engine.Engine {
	return engine.New(arch.SkylakeClusterA(), 1)
}

func TestSplitLayoutOffsetsDisjoint(t *testing.T) {
	l := Layout{N: 2, M: 4, KeyBits: 16, ValBits: 32, BucketBits: 6, Split: true}
	tb, err := New(mem.NewAddressSpace(), l, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for b := 0; b < 4; b++ {
		for s := 0; s < l.M; s++ {
			for off, n := tb.keyOff(b, s), l.KeyBits/8; n > 0; n-- {
				if seen[off] {
					t.Fatalf("overlapping key byte at %d", off)
				}
				seen[off] = true
				off++
			}
			for off, n := tb.valOff(b, s), l.ValBits/8; n > 0; n-- {
				if seen[off] {
					t.Fatalf("overlapping value byte at %d", off)
				}
				seen[off] = true
				off++
			}
		}
	}
	// All bytes of each bucket accounted for.
	if len(seen) != 4*l.BucketBytes() {
		t.Errorf("layout covers %d bytes, want %d", len(seen), 4*l.BucketBytes())
	}
}

func TestSplitLayoutValidation(t *testing.T) {
	bad := Layout{N: 2, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 6, Split: true}
	if err := bad.Validate(); err == nil {
		t.Error("split with m=1 accepted")
	}
}

func TestHorVValidSplitKeysOnly(t *testing.T) {
	// (2,8) with 16-bit keys: split key block = 128 bits → SSE suffices;
	// interleaved needs the full 384-bit bucket → only AVX-512.
	inter := Layout{N: 2, M: 8, KeyBits: 16, ValBits: 32, BucketBits: 8}
	split := inter
	split.Split = true
	if ok, _ := HorVValid(128, inter); ok {
		t.Error("interleaved (2,8)x(16,32) must not fit 128 bits")
	}
	ok, bpv := HorVValid(128, split)
	if !ok || bpv != 1 {
		t.Errorf("split (2,8)x(16,32) at 128 bits = (%v,%d), want (true,1)", ok, bpv)
	}
	ok, bpv = HorVValid(256, split)
	if !ok || bpv != 2 {
		t.Errorf("split at 256 bits = (%v,%d), want (true,2)", ok, bpv)
	}
}

func TestSplitLookupsMatchNative(t *testing.T) {
	layouts := []struct {
		l     Layout
		width int
	}{
		{Layout{N: 2, M: 8, KeyBits: 16, ValBits: 32, BucketBits: 8, Split: true}, 128},
		{Layout{N: 2, M: 8, KeyBits: 16, ValBits: 32, BucketBits: 8, Split: true}, 256},
		{Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8, Split: true}, 128},
		{Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8, Split: true}, 256},
		{Layout{N: 3, M: 2, KeyBits: 32, ValBits: 64, BucketBits: 8, Split: true}, 256},
	}
	for _, c := range layouts {
		ok, bpv := HorVValid(c.width, c.l)
		if !ok {
			t.Fatalf("HorVValid rejected split %s at %d", c.l, c.width)
		}
		h := newHarness(t, c.l, 300, 91)
		found := make([]bool, 300)
		cfg := HorizontalConfig{Width: c.width, BucketsPerVec: bpv}
		h.table.LookupHorizontalBatch(h.eng, h.stream, 0, 300, cfg, h.res, found)
		h.checkAgainstNative(t, "split-horizontal/"+c.l.String(), found)
	}
}

func TestSplitScalarAndVerticalMatchNative(t *testing.T) {
	l := Layout{N: 2, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 9, Split: true}
	h := newHarness(t, l, 250, 92)
	found := make([]bool, 250)
	h.table.LookupScalarBatch(h.eng, h.stream, 0, 250, h.res, found)
	h.checkAgainstNative(t, "split-scalar", found)

	h2 := newHarness(t, l, 250, 93)
	found2 := make([]bool, 250)
	h2.table.LookupVerticalBatch(h2.eng, h2.stream, 0, 250, VerticalConfig{Width: 512}, h2.res, found2)
	h2.checkAgainstNative(t, "split-vertical-hybrid", found2)
}

func TestSplitHorizontalCheaperFor16BitKeys(t *testing.T) {
	// The whole point of the split layout: keys-only probing does less work
	// per lookup than loading whole buckets.
	run := func(split bool, width int) float64 {
		l := Layout{N: 2, M: 8, KeyBits: 16, ValBits: 32, BucketBits: 8, Split: split}
		h := newHarness(t, l, 400, 94)
		ok, bpv := HorVValid(width, l)
		if !ok {
			t.Fatalf("no horizontal choice for split=%v at %d", split, width)
		}
		cfg := HorizontalConfig{Width: width, BucketsPerVec: bpv}
		h.table.LookupHorizontalBatch(h.eng, h.stream, 0, 400, cfg, h.res, nil)
		return h.eng.Cycles()
	}
	inter := run(false, 512) // interleaved requires 512-bit vectors
	split := run(true, 128)  // split probes the key block with SSE
	if split >= inter {
		t.Errorf("split keys-only probing (%v cy) should beat whole-bucket loads (%v cy)", split, inter)
	}
}

func TestAMACBatchMatchesNative(t *testing.T) {
	layouts := []Layout{
		{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8},
		{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 10},
		{N: 2, M: 8, KeyBits: 16, ValBits: 32, BucketBits: 7},
	}
	for _, l := range layouts {
		h := newHarness(t, l, 303, 101)
		found := make([]bool, 303)
		h.table.LookupAMACBatch(h.eng, h.stream, 0, 303, AMACConfig{}, h.res, found)
		h.checkAgainstNative(t, "amac/"+l.String(), found)
	}
}

func TestAMACBeatsScalarOutOfCache(t *testing.T) {
	// The whole point of AMAC: out-of-cache, overlapped prefetch waves beat
	// the dependent scalar probe chain.
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 17} // 4 MB > L2
	h := newHarness(t, l, 600, 102)
	h.table.LookupScalarBatch(h.eng, h.stream, 0, 600, h.res, nil)
	scalarCy := h.eng.Cycles()

	h2 := newHarness(t, l, 600, 102)
	h2.table.LookupAMACBatch(h2.eng, h2.stream, 0, 600, AMACConfig{}, h2.res, nil)
	amacCy := h2.eng.Cycles()
	if amacCy >= scalarCy {
		t.Errorf("AMAC (%v cy) should beat plain scalar (%v cy) out of cache", amacCy, scalarCy)
	}
}

func TestAMACGroupSizeValidation(t *testing.T) {
	l := Layout{N: 2, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 6}
	h := newHarness(t, l, 16, 103)
	defer func() {
		if recover() == nil {
			t.Error("group size 1 should panic")
		}
	}()
	h.table.LookupAMACBatch(h.eng, h.stream, 0, 16, AMACConfig{GroupSize: 1}, h.res, nil)
}
