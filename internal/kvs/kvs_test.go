package kvs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/hashfn"
	"simdhtbench/internal/mem"
)

// liveItems counts a store's live items by scanning its item table.
func liveItems(s *ItemStore) int {
	n := 0
	for i := range s.items {
		if s.items[i].used {
			n++
		}
	}
	return n
}

// memc3Entries counts an index's occupied slots by scanning every bucket.
func memc3Entries(x *MemC3Index) int {
	n := 0
	for b := 0; b < 1<<x.bucketBits; b++ {
		for s := 0; s < memc3Slots; s++ {
			if x.tagAt(b, s) != 0 {
				n++
			}
		}
	}
	return n
}

func TestItemStoreSetGet(t *testing.T) {
	s := NewItemStore(mem.NewAddressSpace())
	ref, err := s.Set([]byte("key-1"), []byte("value-1"))
	if err != nil {
		t.Fatal(err)
	}
	it := s.Get(ref)
	if it == nil || string(s.Key(it)) != "key-1" || string(s.Value(it)) != "value-1" {
		t.Fatalf("Get(%d) = %+v", ref, it)
	}
	if n := liveItems(s); n != 1 {
		t.Errorf("count = %d", n)
	}
}

func TestItemStoreCopiesBytes(t *testing.T) {
	s := NewItemStore(mem.NewAddressSpace())
	key := []byte("kk")
	val := []byte("vv")
	ref, _ := s.Set(key, val)
	key[0] = 'X'
	val[0] = 'X'
	it := s.Get(ref)
	if s.Key(it)[0] == 'X' || s.Value(it)[0] == 'X' {
		t.Error("store must copy key/value bytes")
	}
}

func TestItemStoreDistinctAddresses(t *testing.T) {
	s := NewItemStore(mem.NewAddressSpace())
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		ref, err := s.Set([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte("v"), 32))
		if err != nil {
			t.Fatal(err)
		}
		addr := s.Get(ref).Addr()
		if seen[addr] {
			t.Fatalf("duplicate item address %#x", addr)
		}
		seen[addr] = true
	}
}

func TestItemStoreSlabClasses(t *testing.T) {
	s := NewItemStore(mem.NewAddressSpace())
	small, _ := s.Set([]byte("k"), make([]byte, 4))
	big, _ := s.Set([]byte("k2"), make([]byte, 4000))
	if s.Get(small).class == s.Get(big).class {
		t.Error("4 B and 4 KB values should land in different slab classes")
	}
	if _, err := s.Set([]byte("k3"), make([]byte, 1<<20)); err == nil {
		t.Error("oversized object accepted")
	}
}

func TestItemStoreDeleteAndReuse(t *testing.T) {
	s := NewItemStore(mem.NewAddressSpace())
	ref, _ := s.Set([]byte("a"), []byte("1"))
	if err := s.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if s.Get(ref) != nil {
		t.Error("deleted item still visible")
	}
	if err := s.Delete(ref); err == nil {
		t.Error("double delete accepted")
	}
	ref2, _ := s.Set([]byte("b"), []byte("2"))
	if ref2 != ref {
		t.Errorf("freed ref not reused: got %d want %d", ref2, ref)
	}
}

// TestItemHoldsNoPointer: Item is a flat record, so the store's item table
// is memory the garbage collector does not scan.
func TestItemHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(Item{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int32, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Item.%s is a %s, want a pointer-free scalar", f.Name, f.Type)
		}
	}
}

// TestItemStorePositionLimit: once the store holds the most blocks an item
// position addresses, a Set that fits the last block still succeeds, and one
// that needs a new block fails and leaves the store as it was.
func TestItemStorePositionLimit(t *testing.T) {
	s := NewItemStore(mem.NewAddressSpace())
	s.blocks = make([][]byte, maxBlocks) // only the last block is ever written
	s.blocks[maxBlocks-1] = make([]byte, blockBytes)
	s.fill = blockBytes - 8
	ref, err := s.Set([]byte("key"), []byte("value"))
	if err != nil {
		t.Fatalf("Set into the last block's room: %v", err)
	}
	if it := s.Get(ref); string(s.Key(it)) != "key" || string(s.Value(it)) != "value" {
		t.Fatalf("last block holds (%q, %q)", s.Key(it), s.Value(it))
	}
	before := stateOf(s)
	if _, err := s.Set([]byte("k"), nil); err == nil {
		t.Fatal("Set past the position limit accepted")
	}
	if after := stateOf(s); after != before {
		t.Fatalf("a rejected Set changed the store from %+v to %+v", before, after)
	}
}

// lruOrder walks the store's LRU list from most to least recently used.
func lruOrder(s *ItemStore) []uint32 {
	var out []uint32
	for r := s.lruHead; r >= 0; r = s.items[r].lruNext {
		out = append(out, uint32(r))
	}
	return out
}

func TestLRUOrdering(t *testing.T) {
	s := NewItemStore(mem.NewAddressSpace())
	a, _ := s.Set([]byte("a"), []byte("1"))
	b, _ := s.Set([]byte("b"), []byte("2"))
	c, _ := s.Set([]byte("c"), []byte("3"))
	// Insertion order: c most recent.
	if got := lruOrder(s); got[0] != c || got[2] != a {
		t.Errorf("LRU after inserts = %v", got)
	}
	s.TouchLRU(a)
	if got := lruOrder(s); got[0] != a || got[1] != c || got[2] != b {
		t.Errorf("LRU after touch = %v", got)
	}
	s.Delete(c)
	if got := lruOrder(s); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("LRU after delete = %v", got)
	}
}

// indexSuite runs the same behavioural checks against all three backends.
func indexSuite(t *testing.T, mk func(space *mem.AddressSpace, capacity int) Index) {
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx := mk(space, 5000)
	e := engine.New(arch.SkylakeClusterB(), 1)

	type kv struct {
		key  []byte
		hash uint32
		ref  uint32
	}
	var items []kv
	seen := map[uint32]bool{}
	for i := 0; len(items) < 2000; i++ {
		key := []byte(fmt.Sprintf("bench-key-%08d", i))
		h := Hash32(key)
		if seen[h] {
			continue
		}
		seen[h] = true
		ref, err := store.Set(key, []byte(fmt.Sprintf("val-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(h, ref); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		items = append(items, kv{key, h, ref})
	}

	// Batch lookup: all present keys resolve to the right refs.
	batch := 64
	keys := make([][]byte, batch)
	hashes := make([]uint32, batch)
	refs := make([]uint32, batch)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		want := make([]uint32, batch)
		for i := 0; i < batch; i++ {
			if i%8 == 7 {
				// A guaranteed miss.
				keys[i] = []byte(fmt.Sprintf("missing-key-%08d", i+trial*100))
				hashes[i] = Hash32(keys[i])
				want[i] = NoRef
			} else {
				pick := items[rng.Intn(len(items))]
				keys[i] = pick.key
				hashes[i] = pick.hash
				want[i] = pick.ref
			}
		}
		hits := idx.LookupBatch(e, store, keys, hashes, refs)
		wantHits := 0
		for i := range refs {
			if want[i] != NoRef {
				wantHits++
				if refs[i] != want[i] {
					t.Fatalf("%s: key %q → ref %d, want %d", idx.Name(), keys[i], refs[i], want[i])
				}
			} else if refs[i] != NoRef {
				// A false positive would mean verification failed to reject.
				t.Fatalf("%s: miss key %q resolved to %d", idx.Name(), keys[i], refs[i])
			}
		}
		if hits != wantHits {
			t.Fatalf("%s: hits = %d, want %d", idx.Name(), hits, wantHits)
		}
	}

	if e.Cycles() == 0 {
		t.Errorf("%s charged no cycles", idx.Name())
	}
}

func TestMemC3IndexBehaviour(t *testing.T) {
	indexSuite(t, func(space *mem.AddressSpace, capacity int) Index {
		return NewMemC3Index(space, capacity, 3)
	})
}

func TestHorizontalIndexBehaviour(t *testing.T) {
	indexSuite(t, func(space *mem.AddressSpace, capacity int) Index {
		x, err := NewHorizontalIndex(space, capacity, 128, 3)
		if err != nil {
			t.Fatal(err)
		}
		return x
	})
}

func TestVerticalIndexBehaviour(t *testing.T) {
	indexSuite(t, func(space *mem.AddressSpace, capacity int) Index {
		x, err := NewVerticalIndex(space, capacity, 128, 3)
		if err != nil {
			t.Fatal(err)
		}
		return x
	})
}

// TestSIMDIndexHoldsCapacity fills each SIMD index to its capacity for
// every capacity from 1 to 2048 — the small ones and the top tenth below
// each power of two included — at eight seeds: sizeLayout must leave enough
// headroom for the last key to place. Neither the table's hash seed nor the
// key sequence depends on the capacity, so a fill to the largest capacity of
// a layout passes through the fill of every smaller capacity sized to that
// layout; the test runs that one fill per layout.
func TestSIMDIndexHoldsCapacity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n, m  int
		build func(space *mem.AddressSpace, capacity int, seed int64) (Index, error)
	}{
		{"horizontal", 2, 4, func(space *mem.AddressSpace, capacity int, seed int64) (Index, error) {
			return NewHorizontalIndex(space, capacity, 16, seed)
		}},
		{"vertical", 3, 1, func(space *mem.AddressSpace, capacity int, seed int64) (Index, error) {
			return NewVerticalIndex(space, capacity, 16, seed)
		}},
	} {
		// The largest capacity sized to each layout, in capacity order.
		var fills []int
		for c := 1; c <= 2048; c++ {
			if c == 2048 || sizeLayout(tc.n, tc.m, c+1) != sizeLayout(tc.n, tc.m, c) {
				fills = append(fills, c)
			}
		}
		for seed := int64(1); seed <= 8; seed++ {
			for _, capacity := range fills {
				x, err := tc.build(mem.NewAddressSpace(), capacity, seed)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				seen := map[uint32]bool{0: true, 1: true} // tableKey maps 0 to 1
				for i := 0; i < capacity; i++ {
					h := rng.Uint32()
					for seen[h] {
						h = rng.Uint32()
					}
					seen[h] = true
					if err := x.Insert(h, uint32(i)); err != nil {
						t.Fatalf("%s seed %d: capacity %d (%d slots) full after %d keys: %v", tc.name, seed, capacity, sizeLayout(tc.n, tc.m, capacity).Slots(), i, err)
					}
				}
			}
		}
	}
}

func TestMemC3TagCollisionVerification(t *testing.T) {
	// Two keys engineered into the same bucket with the same tag: the full
	// key verification must disambiguate them.
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx := NewMemC3Index(space, 1000, 1)
	e := engine.New(arch.SkylakeClusterB(), 1)

	// Find two distinct keys with identical (bucket, tag).
	var k1, k2 []byte
	var h1, h2 uint32
	byBT := map[uint64][]int{}
	for i := 0; i < 200000; i++ {
		key := []byte(fmt.Sprintf("collide-%08d", i))
		h := Hash32(key)
		bt := uint64(idx.bucketOf(h))<<8 | uint64(tagOf(h))
		byBT[bt] = append(byBT[bt], i)
		if len(byBT[bt]) == 2 {
			a, b := byBT[bt][0], byBT[bt][1]
			k1 = []byte(fmt.Sprintf("collide-%08d", a))
			k2 = []byte(fmt.Sprintf("collide-%08d", b))
			h1, h2 = Hash32(k1), Hash32(k2)
			break
		}
	}
	if k1 == nil {
		t.Skip("no (bucket,tag) collision found in 200k keys")
	}
	r1, _ := store.Set(k1, []byte("v1"))
	r2, _ := store.Set(k2, []byte("v2"))
	if err := idx.Insert(h1, r1); err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(h2, r2); err != nil {
		t.Fatal(err)
	}
	refs := make([]uint32, 2)
	idx.LookupBatch(e, store, [][]byte{k1, k2}, []uint32{h1, h2}, refs)
	if refs[0] != r1 || refs[1] != r2 {
		t.Fatalf("tag-colliding keys resolved to %v, want [%d %d]", refs, r1, r2)
	}
}

func TestMemC3HighOccupancy(t *testing.T) {
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx := NewMemC3Index(space, 4000, 5)
	slots := (1 << idx.bucketBits) * memc3Slots
	// Fill to eviction failure: a (2,4) BCHT with partial-key cuckoo
	// hashing should sustain ~95% occupancy (Fig. 2).
	for i := 0; ; i++ {
		key := []byte(fmt.Sprintf("occupancy-%07d", i))
		ref, err := store.Set(key, []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(Hash32(key), ref); err != nil {
			break
		}
	}
	if lf := float64(memc3Entries(idx)) / float64(slots); lf < 0.85 {
		t.Errorf("MemC3 max occupancy %.2f, want >= 0.85", lf)
	}
}

func TestMemC3Delete(t *testing.T) {
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx := NewMemC3Index(space, 100, 5)
	e := engine.New(arch.SkylakeClusterB(), 1)
	key := []byte("delete-me-000000")
	h := Hash32(key)
	ref, _ := store.Set(key, []byte("v"))
	idx.Insert(h, ref)
	if !idx.Delete(store, h, key) {
		t.Fatal("delete failed")
	}
	refs := make([]uint32, 1)
	idx.LookupBatch(e, store, [][]byte{key}, []uint32{h}, refs)
	if refs[0] != NoRef {
		t.Error("deleted key still found")
	}
	if idx.Delete(store, h, key) {
		t.Error("double delete returned true")
	}
}

func TestServerSetGetRoundTrip(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx, err := NewVerticalIndex(space, 1000, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sim, arch.SkylakeClusterB(), 4, 64, idx, store)
	if _, _, err := srv.Set([]byte("hello-key-000001"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok := srv.Get([]byte("hello-key-000001"))
	if !ok || string(v) != "world" {
		t.Fatalf("Get = (%q, %v)", v, ok)
	}
	if _, ok := srv.Get([]byte("missing-key-0001")); ok {
		t.Error("missing key found")
	}
}

// TestServerSetReplacesStoredKey: on every backend, a Set of a stored key
// replaces it, as Memcached's set does and as a cache store's update must
// (the newest value wins): it reports replaced, the store keeps one live
// item and Get returns the new value. A Set whose object no slab class
// holds fails before it looks the key up, so the stored value stays.
func TestServerSetReplacesStoredKey(t *testing.T) {
	for _, tc := range testBackends {
		srv := backendServer(t, tc.mk, 1)
		key := []byte("stored-key-00001")
		if _, replaced, err := srv.Set(key, []byte("v1")); err != nil || replaced {
			t.Fatalf("%s: Set of a fresh key = (%v, %v), want stored and not replaced", tc.name, replaced, err)
		}
		if _, replaced, err := srv.Set(key, []byte("v2")); err != nil || !replaced {
			t.Fatalf("%s: Set of a stored key = (%v, %v), want replaced", tc.name, replaced, err)
		}
		check := func(after string) {
			t.Helper()
			if n := liveItems(srv.Store); n != 1 {
				t.Errorf("%s: %d live items after %s, want 1", tc.name, n, after)
			}
			if v, ok := srv.Get(key); !ok || string(v) != "v2" {
				t.Errorf("%s: Get after %s = (%q, %v), want v2", tc.name, after, v, ok)
			}
		}
		check("a second Set")
		_, replaced, err := srv.Set(key, make([]byte, 9000))
		if err == nil || replaced || !strings.Contains(err.Error(), "exceeds the largest slab class") {
			t.Errorf("%s: oversized Set of a stored key = (%v, %v), want the slab-class error", tc.name, replaced, err)
		}
		check("an oversized Set")
	}
}

// testBackends builds each index backend with room for 1000 items and
// batches of up to 64 keys.
var testBackends = []struct {
	name string
	mk   func(space *mem.AddressSpace) (Index, error)
}{
	{"memc3", func(space *mem.AddressSpace) (Index, error) { return NewMemC3Index(space, 1000, 1), nil }},
	{"horizontal", func(space *mem.AddressSpace) (Index, error) { return NewHorizontalIndex(space, 1000, 64, 1) }},
	{"vertical", func(space *mem.AddressSpace) (Index, error) { return NewVerticalIndex(space, 1000, 64, 1) }},
}

// backendServer builds an empty server on a fresh address space with the
// given number of workers over one of testBackends' indexes.
func backendServer(t testing.TB, mk func(*mem.AddressSpace) (Index, error), workers int) *Server {
	t.Helper()
	space := mem.NewAddressSpace()
	idx, err := mk(space)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(nil, arch.SkylakeClusterB(), workers, 64, idx, NewItemStore(space))
}

// TestServerGetAllocFree pins the one-key lookup behind Get (and Set's
// lookup of a stored version) at zero allocations on every backend, for a
// hit and a miss.
func TestServerGetAllocFree(t *testing.T) {
	for _, tc := range testBackends {
		srv := backendServer(t, tc.mk, 2)
		hit, miss := []byte("hello-key-000001"), []byte("missing-key-0001")
		if _, _, err := srv.Set(hit, []byte("world")); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, ok := srv.Get(hit); !ok {
				t.Fatal("stored key not found")
			}
			if _, ok := srv.Get(miss); ok {
				t.Fatal("missing key found")
			}
		}); allocs != 0 {
			t.Errorf("%s: Get allocates %.1f times per hit and miss, want 0", tc.name, allocs)
		}
	}
}

// TestServerSetAllocFree pins the byte store's win: on every backend, once
// warm, a Set of a fresh 20-byte key with a 32-byte value and a Set of a
// stored key allocate nothing on average. The server already holds other
// items, and every key is built before the measurement.
func TestServerSetAllocFree(t *testing.T) {
	const runs = 1000
	value := bytes.Repeat([]byte("v"), 32)
	for _, tc := range testBackends {
		srv := backendServer(t, tc.mk, 2)
		for i := 0; i < 200; i++ {
			if _, _, err := srv.Set([]byte(fmt.Sprintf("held-key-%011d", i)), value); err != nil {
				t.Fatal(err)
			}
		}
		fresh := make([][]byte, runs+1) // AllocsPerRun adds one warm-up call
		for i := range fresh {
			fresh[i] = []byte(fmt.Sprintf("fresh-key-%010d", i))
		}
		next := 0
		if allocs := testing.AllocsPerRun(runs, func() {
			if _, _, err := srv.Set(fresh[next], value); err != nil {
				t.Fatal(err)
			}
			next++
		}); allocs != 0 {
			t.Errorf("%s: Set of a fresh key allocates %.1f times, want 0", tc.name, allocs)
		}
		stored := []byte("held-key-00000000007")
		if allocs := testing.AllocsPerRun(runs, func() {
			if _, replaced, err := srv.Set(stored, value); err != nil || !replaced {
				t.Fatalf("Set of a stored key = (%v, %v)", replaced, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Set of a stored key allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}

// TestServerLoadReservesShare: on every backend, Load of a share of n items
// into a fresh server leaves its item table holding them with capacity
// exactly n, and leaves the store and index as n Sets of the same items
// would. Into a server that already holds items it grows the table to hold
// exactly n more.
func TestServerLoadReservesShare(t *testing.T) {
	const n = 700
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("share-key-%010d", i))
	}
	value := []byte("share-value")
	item := func(j int) ([]byte, []byte, uint32) { return keys[j], value, Hash32(keys[j]) }
	for _, tc := range testBackends {
		loaded, set := backendServer(t, tc.mk, 1), backendServer(t, tc.mk, 1)
		if got, err := loaded.Load(n, item); err != nil || got != n {
			t.Fatalf("%s: Load = (%d, %v), want (%d, nil)", tc.name, got, err, n)
		}
		for _, key := range keys {
			if _, _, err := set.Set(key, value); err != nil {
				t.Fatal(err)
			}
		}
		if l, c := len(loaded.Store.items), cap(loaded.Store.items); l != n || c != n {
			t.Errorf("%s: item table len %d cap %d after loading %d items, want both %d", tc.name, l, c, n, n)
		}
		if !reflect.DeepEqual(loaded.Store, set.Store) || !reflect.DeepEqual(loaded.Index, set.Index) {
			t.Errorf("%s: Load left a different store or index than %d Sets", tc.name, n)
		}
		if _, err := loaded.Load(3, func(j int) ([]byte, []byte, uint32) {
			key := []byte(fmt.Sprintf("more-key-%011d", j))
			return key, value, Hash32(key)
		}); err != nil {
			t.Fatal(err)
		}
		if c := cap(loaded.Store.items); c != n+3 {
			t.Errorf("%s: item table cap %d after 3 more items, want %d", tc.name, c, n+3)
		}
	}
}

// TestServerLoadStopsAtFailure: Load returns the number of items stored
// before the first failing Set, with its error, and stores nothing after
// it.
func TestServerLoadStopsAtFailure(t *testing.T) {
	srv := backendServer(t, testBackends[2].mk, 1)
	key := func(j int) []byte { return []byte(fmt.Sprintf("fail-key-%011d", j)) }
	huge := make([]byte, 9000) // larger than the largest slab class
	got, err := srv.Load(10, func(j int) ([]byte, []byte, uint32) {
		if j == 4 {
			return key(j), huge, Hash32(key(j))
		}
		return key(j), []byte("v"), Hash32(key(j))
	})
	if got != 4 || err == nil {
		t.Fatalf("Load = (%d, %v), want 4 and the oversized item's error", got, err)
	}
	if live := liveItems(srv.Store); live != 4 {
		t.Errorf("%d items stored, want the 4 before the failure", live)
	}
}

// TestSideLookupsLeaveCachesPristine: Get (a hit and a miss) and Set (a
// fresh key and an overwrite) are functional side paths, so on a server
// whose workers are all pristine they charge no worker and leave every
// worker's cache hierarchy pristine, on every backend.
func TestSideLookupsLeaveCachesPristine(t *testing.T) {
	for _, tc := range testBackends {
		srv := backendServer(t, tc.mk, 3)
		pristine := func(after string) {
			t.Helper()
			for wi, e := range srv.engines {
				if !e.Cache.Pristine() || e.Cycles() != 0 {
					t.Fatalf("%s: after %s, worker %d has pristine caches %v and %v cycles, want true and 0",
						tc.name, after, wi, e.Cache.Pristine(), e.Cycles())
				}
			}
		}
		stored := []byte("stored-key-00001")
		if _, _, err := srv.Set(stored, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		pristine("Set")
		if v, ok := srv.Get(stored); !ok || string(v) != "v1" {
			t.Fatalf("%s: Get of a stored key = (%q, %v)", tc.name, v, ok)
		}
		pristine("a Get hit")
		if _, ok := srv.Get([]byte("missing-key-0001")); ok {
			t.Fatalf("%s: missing key found", tc.name)
		}
		pristine("a Get miss")
		if _, replaced, err := srv.Set([]byte("fresh-key-000001"), []byte("v2")); err != nil || replaced {
			t.Fatalf("%s: Set of a fresh key = (%v, %v)", tc.name, replaced, err)
		}
		pristine("a fresh Set")
		if _, replaced, err := srv.Set(stored, []byte("v3")); err != nil || !replaced {
			t.Fatalf("%s: Set of a stored key = (%v, %v)", tc.name, replaced, err)
		}
		pristine("an overwriting Set")
	}
}

func TestServerHandleMGet(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx, err := NewHorizontalIndex(space, 1000, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sim, arch.SkylakeClusterB(), 2, 64, idx, store)
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mget-key-%07d", i))
		if i%4 != 3 {
			if _, _, err := srv.Set(keys[i], []byte(fmt.Sprintf("value-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var res MGetResult
	done := false
	srv.HandleMGet(keys, func(r MGetResult) { res = r; done = true })
	pd.Run()
	if !done {
		t.Fatal("MGet never completed")
	}
	if res.Found != 12 {
		t.Errorf("found = %d, want 12", res.Found)
	}
	for i, v := range res.Values {
		if i%4 == 3 {
			if v != nil {
				t.Errorf("missing key %d returned %q", i, v)
			}
		} else if string(v) != fmt.Sprintf("value-%d", i) {
			t.Errorf("key %d value = %q", i, v)
		}
	}
	if res.Breakdown.Pre <= 0 || res.Breakdown.Lookup <= 0 || res.Breakdown.Post <= 0 {
		t.Errorf("phase breakdown not populated: %+v", res.Breakdown)
	}
	if srv.Batches != 1 || srv.KeysServed != 16 || srv.KeysFound != 12 {
		t.Errorf("server stats: %d batches, %d served, %d found", srv.Batches, srv.KeysServed, srv.KeysFound)
	}
}

func TestServerWorkersLimitConcurrency(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx := NewMemC3Index(space, 100, 1)
	srv := NewServer(sim, arch.SkylakeClusterB(), 1, 16, idx, store)
	key := []byte("worker-key-00001")
	srv.Set(key, []byte("v"))
	var finish []float64
	for i := 0; i < 3; i++ {
		srv.HandleMGet([][]byte{key}, func(MGetResult) { finish = append(finish, sim.Now()) })
	}
	pd.Run()
	if len(finish) != 3 {
		t.Fatalf("completed %d", len(finish))
	}
	// With one worker the three batches must finish strictly serialized.
	if !(finish[0] < finish[1] && finish[1] < finish[2]) {
		t.Errorf("single worker did not serialize: %v", finish)
	}
}

func TestHash32Property(t *testing.T) {
	// Hash32 must be deterministic and spread byte-wise-adjacent keys.
	f := func(a uint32) bool {
		k1 := []byte(fmt.Sprintf("prop-key-%010d", a))
		return Hash32(k1) == Hash32(k1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	distinct := map[uint32]bool{}
	for i := 0; i < 10000; i++ {
		distinct[Hash32([]byte(fmt.Sprintf("prop-key-%010d", i)))] = true
	}
	if len(distinct) < 9990 {
		t.Errorf("only %d distinct hashes for 10000 keys", len(distinct))
	}
}

func TestSIMDIndexRejectsHashCollision(t *testing.T) {
	space := mem.NewAddressSpace()
	idx, err := NewVerticalIndex(space, 100, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(42, 1); err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(42, 2); err == nil {
		t.Error("duplicate 32-bit hash accepted")
	}
}

// TestCapacityEviction: on every backend, Sets past MaxBytes evict from the
// LRU tail, store and index alike, and a Set that replaces a stored key
// with a value of the same slab class evicts nothing.
func TestCapacityEviction(t *testing.T) {
	for _, tc := range testBackends {
		srv := backendServer(t, tc.mk, 2)
		store := srv.Store
		store.MaxBytes = 64 * 100 // room for 50 items of the 128 B class

		var keys [][]byte
		for i := 0; i < 300; i++ {
			key := []byte(fmt.Sprintf("evict-key-%06d", i))
			if _, _, err := srv.Set(key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
		if store.usedBytes > store.MaxBytes {
			t.Errorf("%s: used %d exceeds cap %d", tc.name, store.usedBytes, store.MaxBytes)
		}
		// The newest keys must be present, the oldest evicted (LRU order).
		if _, ok := srv.Get(keys[len(keys)-1]); !ok {
			t.Errorf("%s: most recent key evicted", tc.name)
		}
		if _, ok := srv.Get(keys[0]); ok {
			t.Errorf("%s: oldest key survived past capacity", tc.name)
		}
		// Evicted keys must be fully gone from the index (no dangling refs).
		hits := 0
		for _, k := range keys {
			if _, ok := srv.Get(k); ok {
				hits++
			}
		}
		n := liveItems(store)
		if hits != n {
			t.Errorf("%s: index answered %d keys but store holds %d", tc.name, hits, n)
		}
		// Every Set of a fresh key either still holds its item or evicted
		// one.
		if srv.Evictions == 0 || srv.Evictions+uint64(n) != uint64(len(keys)) {
			t.Fatalf("%s: %d evictions and %d live items after %d Sets", tc.name, srv.Evictions, n, len(keys))
		}
		// The stale version leaves before the new one is stored, so the
		// store stays under its cap without an eviction.
		evictions := srv.Evictions
		if _, replaced, err := srv.Set(keys[len(keys)-1], []byte("w")); err != nil || !replaced {
			t.Fatalf("%s: Set of a stored key = (%v, %v)", tc.name, replaced, err)
		}
		if srv.Evictions != evictions || liveItems(store) != n {
			t.Errorf("%s: replacing a stored key made %d evictions and left %d items, want 0 and %d",
				tc.name, srv.Evictions-evictions, liveItems(store), n)
		}
		if v, ok := srv.Get(keys[len(keys)-1]); !ok || string(v) != "w" {
			t.Errorf("%s: Get of the replaced key = (%q, %v), want w", tc.name, v, ok)
		}
	}
}

// TestOversizedSetKeepsStore: an object no slab class holds is rejected
// before the eviction loop, so a capacity-bounded store keeps every item.
func TestOversizedSetKeepsStore(t *testing.T) {
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	store.MaxBytes = 64 * 200
	idx, err := NewVerticalIndex(space, 1000, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(nil, arch.SkylakeClusterB(), 1, 64, idx, store)
	var keys [][]byte
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("kept-key-%06d", i))
		if _, _, err := srv.Set(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	_, _, err = srv.Set([]byte("big"), make([]byte, 9000))
	if err == nil || !strings.Contains(err.Error(), "exceeds the largest slab class") {
		t.Fatalf("oversized Set returned %v, want the slab-class error", err)
	}
	if n := liveItems(store); srv.Evictions != 0 || n != 100 {
		t.Fatalf("oversized Set left %d evictions and %d items, want 0 and 100", srv.Evictions, n)
	}
	for _, k := range keys {
		if _, ok := srv.Get(k); !ok {
			t.Fatalf("key %q lost to an oversized Set", k)
		}
	}
}

func TestGetRefreshesLRUAgainstEviction(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	store.MaxBytes = 64 * 50
	idx, err := NewHorizontalIndex(space, 1000, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sim, arch.SkylakeClusterB(), 1, 64, idx, store)
	hot := []byte("hot-key-00000001")
	if _, _, err := srv.Set(hot, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		// Keep touching the hot key through the MGet path (which updates
		// LRU in post-processing) while inserting cold keys.
		done := false
		srv.HandleMGet([][]byte{hot}, func(MGetResult) { done = true })
		pd.Run()
		if !done {
			t.Fatal("mget did not run")
		}
		if _, _, err := srv.Set([]byte(fmt.Sprintf("cold-key-%07d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := srv.Get(hot); !ok {
		t.Error("frequently-read key evicted despite LRU refreshes")
	}
}

func TestIndexDelete(t *testing.T) {
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	for _, mk := range []func() Index{
		func() Index { return NewMemC3Index(space, 100, 1) },
		func() Index { x, _ := NewHorizontalIndex(space, 100, 16, 1); return x },
		func() Index { x, _ := NewVerticalIndex(space, 100, 16, 1); return x },
	} {
		idx := mk()
		key := []byte("del-key-00000001")
		h := Hash32(key)
		ref, _ := store.Set(key, []byte("v"))
		if err := idx.Insert(h, ref); err != nil {
			t.Fatal(err)
		}
		if !idx.Delete(store, h, key) {
			t.Errorf("%s: delete failed", idx.Name())
		}
		if idx.Delete(store, h, key) {
			t.Errorf("%s: double delete succeeded", idx.Name())
		}
	}
}

func TestUsedBytesAccounting(t *testing.T) {
	store := NewItemStore(mem.NewAddressSpace())
	if store.usedBytes != 0 {
		t.Error("fresh store has used bytes")
	}
	r1, _ := store.Set([]byte("k1"), make([]byte, 4))   // 64B class
	r2, _ := store.Set([]byte("k2"), make([]byte, 400)) // 512B class
	if store.usedBytes != 64+512 {
		t.Errorf("used = %d, want 576", store.usedBytes)
	}
	store.Delete(r1)
	if store.usedBytes != 512 {
		t.Errorf("used after delete = %d", store.usedBytes)
	}
	store.Delete(r2)
	if store.usedBytes != 0 {
		t.Errorf("used after drain = %d", store.usedBytes)
	}
}

func TestRingOwnershipStable(t *testing.T) {
	r, err := NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := hashfn.HashBytes([]byte("stable-key-000001"))
	s := owner(r, h)
	for i := 0; i < 10; i++ {
		if owner(r, h) != s {
			t.Fatal("ownership not stable")
		}
	}
	if s < 0 || s >= 4 {
		t.Fatalf("owner %d out of range", s)
	}
}

func TestRingBalance(t *testing.T) {
	r, _ := NewRing(4, 0)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[owner(r, hashfn.HashBytes([]byte(fmt.Sprintf("balance-key-%08d", i))))]++
	}
	for s, c := range counts {
		frac := float64(c) / 40000
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("server %d owns %.1f%% of keys; ring unbalanced", s, frac*100)
		}
	}
}

func TestRingMinimalRemapping(t *testing.T) {
	// Consistent hashing's defining property: growing the cluster remaps
	// roughly 1/(n+1) of the keys, not all of them.
	r4, _ := NewRing(4, 0)
	r5, _ := NewRing(5, 0)
	moved := 0
	n := 20000
	for i := 0; i < n; i++ {
		h := hashfn.HashBytes([]byte(fmt.Sprintf("remap-key-%08d", i)))
		if owner(r4, h) != owner(r5, h) {
			moved++
		}
	}
	frac := float64(moved) / float64(n)
	if frac > 0.35 {
		t.Errorf("%.1f%% of keys moved when adding a 5th server; want ≈20%%", frac*100)
	}
	if frac < 0.05 {
		t.Errorf("only %.1f%% moved; the new server got almost nothing", frac*100)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(0, 0); err == nil {
		t.Error("zero servers accepted")
	}
}
