package cuckoo

import (
	"math/rand"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

// benchSetup builds a filled table plus query stream for lookup benchmarks.
func benchSetup(b *testing.B, l Layout, nq int) (*Table, *Stream, *ResultBuf, *engine.Engine) {
	b.Helper()
	space := mem.NewAddressSpace()
	t, err := New(space, l, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys, _ := t.FillRandom(0.9, rng)
	queries := make([]uint64, nq)
	for i := range queries {
		queries[i] = keys[rng.Intn(len(keys))]
	}
	return t, NewStream(space, queries, l.KeyBits), NewResultBuf(space, nq, l.ValBits), engine.New(arch.SkylakeClusterA(), 1)
}

func BenchmarkNativeLookup(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12}
	t, s, _, _ := benchSetup(b, l, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(s.Key(i & 1023)); !ok {
			b.Fatal("stored key missing")
		}
	}
}

func BenchmarkNativeInsert(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 16}
	space := mem.NewAddressSpace()
	t, _ := New(space, l, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i)%uint64(l.Slots()) + 2
		if err := t.Insert(key&^1, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLookups times b.N passes of lookup over a 1,024-key stream and
// reports the host cost per looked-up key.
func benchLookups(b *testing.B, lookup func()) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(1024*b.N), "ns/lookup")
}

func BenchmarkChargedScalarLookup(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12}
	t, s, res, e := benchSetup(b, l, 1024)
	benchLookups(b, func() { t.LookupScalarBatch(e, s, 0, 1024, res, nil) })
}

func BenchmarkChargedHorizontalLookup(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12}
	t, s, res, e := benchSetup(b, l, 1024)
	cfg := HorizontalConfig{Width: 256, BucketsPerVec: 1}
	benchLookups(b, func() { t.LookupHorizontalBatch(e, s, 0, 1024, cfg, res, nil) })
}

// BenchmarkChargedHorizontal512BCHT64 is simbench update-dram's V-Hor 512
// kernel: a (2,4) BCHT of 64-bit keys and payloads probed one 512-bit
// bucket at a time (on a 2 MB table instead of update-dram's 32 MB one).
func BenchmarkChargedHorizontal512BCHT64(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 64, ValBits: 64, BucketBits: 12}
	t, s, res, e := benchSetup(b, l, 1024)
	cfg := HorizontalConfig{Width: 512, BucketsPerVec: 1}
	benchLookups(b, func() { t.LookupHorizontalBatch(e, s, 0, 1024, cfg, res, nil) })
}

func BenchmarkChargedVerticalLookup(b *testing.B) {
	l := Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 13}
	t, s, res, e := benchSetup(b, l, 1024)
	cfg := VerticalConfig{Width: 512}
	benchLookups(b, func() { t.LookupVerticalBatch(e, s, 0, 1024, cfg, res, nil) })
}

func BenchmarkChargedAMACLookup(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12}
	t, s, res, e := benchSetup(b, l, 1024)
	benchLookups(b, func() { t.LookupAMACBatch(e, s, 0, 1024, AMACConfig{}, res, nil) })
}

func BenchmarkFillToNinetyPercent(b *testing.B) {
	l := Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 12}
	for i := 0; i < b.N; i++ {
		space := mem.NewAddressSpace()
		t, _ := New(space, l, int64(i))
		rng := rand.New(rand.NewSource(int64(i)))
		_, lf := t.FillRandom(0.9, rng)
		if lf < 0.89 {
			b.Fatalf("fill stalled at %.2f", lf)
		}
	}
}

// benchmarkFill times FillRandom to lf on a fresh table of the given shape
// and reports the host cost per inserted key. Every iteration fills the
// same table from the same seeds, so runs on two commits do the same work.
func benchmarkFill(b *testing.B, n, m, keyBits, valBits, tableBytes int, lf float64) {
	l, err := LayoutForBytes(n, m, keyBits, valBits, tableBytes)
	if err != nil {
		b.Fatal(err)
	}
	inserted := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t, err := New(mem.NewAddressSpace(), l, 1)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		b.StartTimer()
		keys, _ := t.FillRandom(lf, rng)
		inserted += len(keys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inserted), "ns/insert")
}

// BenchmarkFill3Way16MB is the fill behind Fig. 6's largest 3-way table:
// deep BFS searches over a table far larger than the host's caches.
func BenchmarkFill3Way16MB(b *testing.B) { benchmarkFill(b, 3, 1, 32, 32, 16<<20, 0.9) }

// BenchmarkFillBCHT32MB is simbench update-dram's uncharged fill: a (2,4)
// table of 64-bit keys and payloads to load factor 0.88, where few inserts
// search and the cost is the candidate buckets' cache misses.
func BenchmarkFillBCHT32MB(b *testing.B) { benchmarkFill(b, 2, 4, 64, 64, 32<<20, 0.88) }
