package kvs

import (
	"fmt"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

func benchIndex(b *testing.B, idx Index, store *ItemStore) {
	b.Helper()
	e := engine.New(arch.SkylakeClusterB(), 1)
	var keys [][]byte
	var hashes []uint32
	seen := map[uint32]bool{}
	for i := 0; len(keys) < 4096; i++ {
		key := []byte(fmt.Sprintf("bench-%010d", i))
		h := Hash32(key)
		if seen[h] {
			continue
		}
		seen[h] = true
		ref, err := store.Set(key, []byte("value-32-bytes-xxxxxxxxxxxxxxxx"))
		if err != nil {
			b.Fatal(err)
		}
		if err := idx.Insert(h, ref); err != nil {
			b.Fatal(err)
		}
		keys = append(keys, key)
		hashes = append(hashes, h)
	}
	refs := make([]uint32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * 64) % 4032
		hits := idx.LookupBatch(e, store, keys[base:base+64], hashes[base:base+64], refs)
		if hits != 64 {
			b.Fatalf("hits = %d", hits)
		}
	}
	b.ReportMetric(64, "keys/op")
}

func BenchmarkMemC3Batch(b *testing.B) {
	space := mem.NewAddressSpace()
	benchIndex(b, NewMemC3Index(space, 5000, 1), NewItemStore(space))
}

func BenchmarkHorizontalBatch(b *testing.B) {
	space := mem.NewAddressSpace()
	x, err := NewHorizontalIndex(space, 5000, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchIndex(b, x, NewItemStore(space))
}

func BenchmarkVerticalBatch(b *testing.B) {
	space := mem.NewAddressSpace()
	x, err := NewVerticalIndex(space, 5000, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchIndex(b, x, NewItemStore(space))
}

func BenchmarkServerSet(b *testing.B) {
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx, err := NewVerticalIndex(space, 1<<21, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(nil, arch.SkylakeClusterB(), 1, 64, idx, store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("set-key-%012d", i))
		if _, err := srv.Set(key, []byte("v")); err != nil {
			// 32-bit hash collisions are expected at this scale (birthday
			// bound); production loaders deduplicate, so skip the key.
			continue
		}
	}
}

// BenchmarkWarmCaches warms a fresh 4-worker Skylake-B server holding 10k
// items: the index table and the hot items into every worker's hierarchy.
// Building the server's engines stays outside the timer.
func BenchmarkWarmCaches(b *testing.B) {
	srv, _ := warmServer(b, 10000)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := NewServer(nil, srv.Arch, 4, 64, srv.Index, srv.Store)
		b.StartTimer()
		fresh.WarmCaches()
	}
}
