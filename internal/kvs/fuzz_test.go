package kvs

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

// FuzzMultiGet feeds HandleMGet arbitrary batches — empty batches, zero-key
// gets, duplicate keys, unknown keys, batches far beyond maxBatch (the
// chunking path) — against a server with a small SIMD index. Invariants:
// done fires exactly once, the result aligns one value per requested key,
// found keys return their stored values, and nothing panics or hangs.
func FuzzMultiGet(f *testing.F) {
	f.Add([]byte{}, uint8(0))  // empty batch
	f.Add([]byte{0}, uint8(1)) // one zero-length key
	f.Add([]byte("key-0key-0"), uint8(2) /* duplicates */)
	f.Add([]byte("key-1key-2key-3key-4key-5key-6key-7key-8key-9"), uint8(40)) // oversized vs maxBatch 8
	f.Add([]byte("\x00\xff\x00unknown-key-material"), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, n uint8) {
		pd := des.NewPartitioned(1, 1, 1e-6)
		sim := pd.Sim(0)
		space := mem.NewAddressSpace()
		store := NewItemStore(space)
		idx, err := NewVerticalIndex(space, 64, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(sim, arch.SkylakeClusterB(), 2, 8, idx, store)
		stored := map[string]string{}
		for i := 0; i < 16; i++ {
			k, v := fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)
			if _, _, err := srv.Set([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			stored[k] = v
		}

		// Carve the raw bytes into up to n keys of varying lengths (0–11
		// bytes), so batches mix empty, duplicate, stored and garbage keys.
		batch := make([][]byte, 0, int(n)%64)
		for i := 0; len(batch) < cap(batch); i++ {
			kl := 0
			if len(raw) > 0 {
				kl = int(raw[i%len(raw)]) % 12
			}
			from := (i * 3) % (len(raw) + 1)
			to := from + kl
			if to > len(raw) {
				to = len(raw)
			}
			batch = append(batch, raw[from:to])
		}

		fired := 0
		var res MGetResult
		srv.HandleMGet(batch, func(r MGetResult) { res = r; fired++ })
		pd.SetEventBudget(uint64(len(batch))*64 + 4096)
		pd.Run()
		if pd.BudgetExhausted() {
			t.Fatalf("MGet of %d keys did not drain within budget", len(batch))
		}
		if fired != 1 {
			t.Fatalf("done fired %d times for %d keys", fired, len(batch))
		}
		if len(res.Values) != len(batch) {
			t.Fatalf("%d values for %d keys", len(res.Values), len(batch))
		}
		found := 0
		for i, v := range res.Values {
			want, ok := stored[string(batch[i])]
			if !ok {
				if v != nil {
					t.Fatalf("unknown key %q returned value %q", batch[i], v)
				}
				continue
			}
			found++
			if string(v) != want {
				t.Fatalf("key %q returned %q, want %q", batch[i], v, want)
			}
		}
		if res.Found != found {
			t.Fatalf("Found = %d, want %d", res.Found, found)
		}
	})
}

// findPool is FuzzFindMatchesLookupBatch's key pool: four keys with
// distinct hashes and two pairs whose 32-bit hashes collide.
var findPool = [][]byte{
	[]byte("key-0"), []byte("key-1"), []byte("key-2"), []byte("key-3"),
	[]byte("key-64797"), []byte("key-99085"), // Hash32 0xf6b5e1c3
	[]byte("key-26158"), []byte("key-113740"), // Hash32 0x8c8460ad
}

// FuzzFindMatchesLookupBatch runs random programs of Sets, oversized Sets,
// Deletes and Gets on each backend over findPool, against a map oracle;
// each program byte pair is an op and a key. Set is Memcached's set: on a
// stored key it reports replaced and the key keeps one entry holding the
// newest value, and on an absent key it inserts; the store holds one live
// item per key the oracle stores. A SIMD index keeps one key
// per 32-bit hash, so it rejects a Set of a key whose hash partner is
// stored; MemC3 verifies full keys and keeps both. An oversized Set (an
// object one byte past the largest slab class) fails, stored key or not,
// and leaves Find, Get and the oracle as they were. Delete runs only on
// stored keys, as the server's callers use it. After every step, for every
// key of the pool, Index.Find must return the ref a charged one-key
// LookupBatch returns on a spare engine, and both, and Get, must agree with
// the oracle.
func FuzzFindMatchesLookupBatch(f *testing.F) {
	for i := 4; i < len(findPool); i += 2 {
		if Hash32(findPool[i]) != Hash32(findPool[i+1]) {
			f.Fatalf("pool keys %q and %q no longer collide", findPool[i], findPool[i+1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 3, 0, 3, 2})             // set, set, get hit, get miss
	f.Add([]byte{0, 4, 0, 5, 1, 5, 2, 4, 0, 5, 3, 5}) // a colliding pair: set, set, oversized set, delete, set, get
	f.Add([]byte{1, 6, 1, 6, 1, 7, 2, 6, 1, 7, 2, 7}) // oversized sets of absent keys across a colliding pair
	f.Add([]byte{0, 0, 2, 0, 0, 0, 1, 0, 2, 0, 3, 0}) // set, delete, set again, oversized set, delete, get
	f.Add([]byte{0, 1, 0, 1, 3, 1})                   // a key set twice: replaced, the newest value
	f.Add([]byte{0, 6, 0, 7, 0, 7, 2, 6, 0, 7})       // a colliding pair's second key: SIMD rejects it until the first goes, MemC3 keeps both
	f.Add([]byte{0, 2, 1, 2, 3, 2, 0, 2, 3, 2})       // an oversized set over a stored key keeps it; a set replaces it
	largest := slabClassSizes[len(slabClassSizes)-1] - itemHeaderBytes
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		for _, tc := range testBackends {
			srv := backendServer(t, tc.mk, 2)
			_, memc3 := srv.Index.(*MemC3Index)
			spare := engine.New(arch.SkylakeClusterB(), 1)
			oracle := map[string]string{}
			// partnerStored reports whether another key with k's 32-bit
			// hash is stored.
			partnerStored := func(k []byte) bool {
				for _, p := range findPool {
					if _, ok := oracle[string(p)]; ok && string(p) != string(k) && Hash32(p) == Hash32(k) {
						return true
					}
				}
				return false
			}
			var refs [1]uint32
			lookup := func(k []byte) uint32 {
				srv.Index.LookupBatch(spare, srv.Store, [][]byte{k}, []uint32{Hash32(k)}, refs[:])
				return refs[0]
			}
			for i := 0; i+1 < len(prog); i += 2 {
				k := findPool[int(prog[i+1])%len(findPool)]
				v := fmt.Sprintf("value-%d", i)
				_, stored := oracle[string(k)]
				rejects := !memc3 && partnerStored(k)
				step := fmt.Sprintf("%s step %d", tc.name, i/2)
				switch prog[i] % 4 {
				case 0: // Set
					_, replaced, err := srv.Set(k, []byte(v))
					if (err != nil) != rejects || replaced != stored {
						t.Fatalf("%s: Set(%q) = (%v, %v), want replaced %v, rejected %v", step, k, replaced, err, stored, rejects)
					}
					if err == nil {
						oracle[string(k)] = v
					}
				case 1: // an oversized Set
					before := srv.Index.Find(srv.Store, Hash32(k), k)
					if _, replaced, err := srv.Set(k, make([]byte, largest-len(k)+1)); err == nil || replaced {
						t.Fatalf("%s: oversized Set(%q) = (%v, %v), want rejected", step, k, replaced, err)
					}
					if after := srv.Index.Find(srv.Store, Hash32(k), k); after != before {
						t.Fatalf("%s: oversized Set(%q) moved Find from %d to %d", step, k, before, after)
					}
				case 2: // Delete
					if !stored {
						continue
					}
					ref := lookup(k)
					if !srv.Index.Delete(srv.Store, Hash32(k), k) {
						t.Fatalf("%s: Delete(%q) found no entry", step, k)
					}
					if err := srv.Store.Delete(ref); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					delete(oracle, string(k))
				case 3: // Get, checked with every key below
				}
				for _, k := range findPool {
					want, stored := oracle[string(k)]
					h := Hash32(k)
					found, charged := srv.Index.Find(srv.Store, h, k), lookup(k)
					if found != charged {
						t.Fatalf("%s: Find(%q) = %d, one-key LookupBatch = %d", step, k, found, charged)
					}
					if (found != NoRef) != stored {
						t.Fatalf("%s: Find(%q) = %d, oracle stored %v", step, k, found, stored)
					}
					if got, ok := srv.Get(k); ok != stored || string(got) != want {
						t.Fatalf("%s: Get(%q) = (%q, %v), oracle (%q, %v)", step, k, got, ok, want, stored)
					}
				}
				if n := liveItems(srv.Store); n != len(oracle) {
					t.Fatalf("%s: %d live items, oracle stores %d keys", step, n, len(oracle))
				}
			}
			for wi, e := range srv.engines {
				if !e.Cache.Pristine() {
					t.Fatalf("%s: worker %d's caches were touched by side-path lookups", tc.name, wi)
				}
			}
		}
	})
}

// storeState is the part of an ItemStore that a rejected Set must leave as
// it was.
type storeState struct {
	items, free, blocks, fill, usedBytes int
	lruHead, lruTail                     int32
}

func stateOf(s *ItemStore) storeState {
	return storeState{len(s.items), len(s.free), len(s.blocks), s.fill, s.usedBytes, s.lruHead, s.lruTail}
}

// FuzzItemStoreBytes runs random programs of Set, Delete, TouchLRU and reads
// on an ItemStore against a map oracle. Each step is three program bytes:
// an op and two operands. Set draws keys of 0–250 B and values up to the
// largest slab class, so objects often overflow the current byte block;
// another op sets an object one byte too large or more. After every step,
// every live item's key and value equal the oracle's and have no spare
// capacity, and every key or value slice handed out earlier — of a live
// item, a deleted one, or one deleted before the store emptied — still
// holds its bytes, although reads append to the slices they hand out. A
// store with no live item keeps at most one block, and an oversized Set
// fails and leaves the store as it was.
func FuzzItemStoreBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 10, 0, 20, 30, 3, 0, 0, 1, 0, 0, 1, 0, 0, 0, 7, 7, 3, 0, 0}) // set, set, read, empty, set, read
	f.Add([]byte{
		0, 250, 255, 0, 250, 255, 0, 250, 255, 0, 250, 255, 0, 250, 255, // five largest objects
		0, 250, 255, 0, 250, 255, 0, 250, 255, 0, 250, 255, 3, 3, 0, // nine fill a block; read
		1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, // empty
		0, 10, 255, 3, 0, 0, // set into the kept block, read
	})
	f.Add([]byte{0, 1, 1, 4, 250, 255, 4, 0, 0, 2, 0, 0, 3, 0, 0, 0, 0, 0, 3, 1, 0}) // oversized sets, touch, empty objects
	f.Add([]byte{0, 3, 9, 0, 4, 8, 0, 5, 7, 2, 0, 0, 1, 1, 0, 2, 1, 0, 3, 0, 0, 1, 0, 0, 1, 0, 0, 0, 6, 6})
	largest := slabClassSizes[len(slabClassSizes)-1] - itemHeaderBytes
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*64 {
			prog = prog[:3*64]
		}
		s := NewItemStore(mem.NewAddressSpace())
		type object struct{ key, value []byte }
		oracle := map[uint32]object{}
		var order []uint32 // live refs, the operand space of Delete, TouchLRU and reads
		type handout struct{ got, want []byte }
		var handed []handout
		hand := func(ref uint32) {
			it := s.Get(ref)
			for _, b := range [][]byte{s.Key(it), s.Value(it)} {
				handed = append(handed, handout{b, append([]byte(nil), b...)})
			}
		}
		pattern := func(n, seed int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(seed + 7*i)
			}
			return b
		}
		for i := 0; i+2 < len(prog); i += 3 {
			op, a, b := prog[i]%5, int(prog[i+1]), int(prog[i+2])
			step := fmt.Sprintf("step %d (op %d)", i/3, op)
			switch op {
			case 0: // Set
				keyLen := a % 251
				key, value := pattern(keyLen, i), pattern(b*(largest-keyLen)/255, i+1)
				ref, err := s.Set(key, value)
				if err != nil {
					t.Fatalf("%s: Set of %d+%d bytes: %v", step, len(key), len(value), err)
				}
				oracle[ref] = object{append([]byte(nil), key...), append([]byte(nil), value...)}
				order = append(order, ref)
				for _, buf := range [][]byte{key, value} { // the store holds copies
					for j := range buf {
						buf[j] = ^buf[j]
					}
				}
				hand(ref)
			case 1, 2, 3: // Delete, TouchLRU, read
				if len(order) == 0 {
					continue
				}
				j := a % len(order)
				ref := order[j]
				switch op {
				case 1:
					hand(ref)
					if err := s.Delete(ref); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					delete(oracle, ref)
					order = append(order[:j], order[j+1:]...)
				case 2:
					s.TouchLRU(ref)
				case 3:
					it := s.Get(ref)
					hand(ref)
					_ = append(s.Key(it), pattern(b, i)...)
					_ = append(s.Value(it), pattern(b, i)...)
				}
			case 4: // an oversized Set
				keyLen := a % 251
				before := stateOf(s)
				if _, err := s.Set(pattern(keyLen, i), pattern(largest-keyLen+1+b, i)); err == nil {
					t.Fatalf("%s: Set of %d bytes accepted", step, largest+1+b)
				}
				if after := stateOf(s); after != before {
					t.Fatalf("%s: a rejected Set changed the store from %+v to %+v", step, before, after)
				}
			}

			if n, lru := liveItems(s), len(lruOrder(s)); n != len(oracle) || lru != len(oracle) {
				t.Fatalf("%s: %d live items and %d on the LRU list, oracle holds %d", step, n, lru, len(oracle))
			}
			if len(oracle) == 0 && len(s.blocks) > 1 {
				t.Fatalf("%s: an empty store keeps %d blocks", step, len(s.blocks))
			}
			for ref, want := range oracle {
				it := s.Get(ref)
				if it == nil {
					t.Fatalf("%s: live ref %d not found", step, ref)
				}
				k, v := s.Key(it), s.Value(it)
				if !bytes.Equal(k, want.key) || !bytes.Equal(v, want.value) {
					t.Fatalf("%s: ref %d holds a %d-byte key and a %d-byte value unlike the oracle's %d and %d", step, ref, len(k), len(v), len(want.key), len(want.value))
				}
				if cap(k) != len(k) || cap(v) != len(v) {
					t.Fatalf("%s: ref %d's slices have spare capacity (%d/%d, %d/%d)", step, ref, len(k), cap(k), len(v), cap(v))
				}
			}
			for h, o := range handed {
				if !bytes.Equal(o.got, o.want) {
					t.Fatalf("%s: handed-out slice %d changed", step, h)
				}
			}
		}
	})
}

// lruOracle is FuzzServerMatchesLRUOracle's model of a capacity-bounded
// server: the stored values, the keys in LRU order (most recent first), the
// slab bytes they are charged and the evictions so far.
type lruOracle struct {
	vals      map[string]string
	lru       []string
	used      int
	maxBytes  int
	evictions int
}

// chunk is the slab chunk an object of key k and value v is charged.
func chunk(k, v string) int {
	for _, c := range slabClassSizes {
		if c >= itemHeaderBytes+len(k)+len(v) {
			return c
		}
	}
	panic("object exceeds the largest slab class")
}

func (o *lruOracle) remove(k string) {
	o.used -= chunk(k, o.vals[k])
	delete(o.vals, k)
	o.lru = slices.DeleteFunc(o.lru, func(x string) bool { return x == k })
}

// set is Server.Set of an object within the largest slab class: the stored
// version leaves, least-recently-used keys are evicted until the new object
// fits under maxBytes or nothing is left, and the object is stored at the
// LRU front, unless oneKeyPerHash (a SIMD index) and a surviving key shares
// its 32-bit hash. It returns whether a version was replaced and whether
// the Set was rejected.
func (o *lruOracle) set(k, v string, oneKeyPerHash bool) (replaced, rejected bool) {
	if _, replaced = o.vals[k]; replaced {
		o.remove(k)
	}
	c := chunk(k, v)
	for o.maxBytes > 0 && o.used+c > o.maxBytes && len(o.lru) > 0 {
		o.remove(o.lru[len(o.lru)-1])
		o.evictions++
	}
	if oneKeyPerHash {
		for p := range o.vals {
			if Hash32([]byte(p)) == Hash32([]byte(k)) {
				return replaced, true
			}
		}
	}
	o.vals[k] = v
	o.lru = append([]string{k}, o.lru...)
	o.used += c
	return replaced, false
}

// touch is a Multi-Get hit's LRU update: k moves to the front.
func (o *lruOracle) touch(k string) {
	o.lru = slices.DeleteFunc(o.lru, func(x string) bool { return x == k })
	o.lru = append([]string{k}, o.lru...)
}

// FuzzServerMatchesLRUOracle runs random programs of Sets, oversized Sets,
// Gets and HandleMGet batches on a server of each backend whose store is
// capped at MaxBytes, against lruOracle. The first program byte picks the
// cap (0, unbounded, or 512 to 3,584 bytes); then each byte triple is an
// op, a findPool key and a size: a Set's value length (1 to 3,061 bytes,
// so objects span the 64 B to 4 KB slab classes and a Set may evict every
// other item) or a batch's length and stride over findPool (duplicates
// included). findPool's colliding pairs make a SIMD index refuse a key
// whose hash partner survives the Set's evictions, after those evictions.
// After every step each pool key's Get must return the oracle's value, and
// the store's live items, LRU order, charged bytes and the server's
// eviction count must equal the oracle's; every batch's values must be the
// oracle's, and its hits move to the LRU front in batch order.
func FuzzServerMatchesLRUOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 10, 0, 1, 10, 0, 2, 10, 3, 0, 1, 0, 3, 20})        // cap 1024: three Sets, a batch touches key-0, a fourth Set evicts key-1
	f.Add([]byte{3, 0, 4, 10, 0, 5, 10, 2, 5, 0, 0, 5, 100})                 // cap 1536: a colliding pair; its second key evicts the first, then is stored
	f.Add([]byte{1, 0, 6, 5, 0, 7, 5, 0, 0, 255, 1, 0, 0, 3, 6, 17})         // cap 512: a Set evicts everything; an oversized Set changes nothing
	f.Add([]byte{2, 0, 4, 10, 0, 0, 20, 3, 4, 1, 0, 5, 20})                  // cap 1024: a colliding key evicts key-0, then SIMD refuses it: its partner survived
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 1, 3, 3, 0, 8, 2, 2, 0, 0, 0, 250}) // unbounded: a replaced Set, a batch of every key, a Get
	largest := slabClassSizes[len(slabClassSizes)-1] - itemHeaderBytes
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1+3*64 {
			prog = prog[:1+3*64]
		}
		maxBytes := 0
		if len(prog) > 0 {
			maxBytes = int(prog[0]%8) * 512
			prog = prog[1:]
		}
		for _, tc := range testBackends {
			pd := des.NewPartitioned(1, 1, 1e-6)
			space := mem.NewAddressSpace()
			idx, err := tc.mk(space)
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(pd.Sim(0), arch.SkylakeClusterB(), 2, 64, idx, NewItemStore(space))
			srv.Store.MaxBytes = maxBytes
			_, memc3 := idx.(*MemC3Index)
			o := &lruOracle{vals: map[string]string{}, maxBytes: maxBytes}
			for i := 0; i+2 < len(prog); i += 3 {
				op, ki, size := prog[i]%4, int(prog[i+1])%len(findPool), int(prog[i+2])
				k := findPool[ki]
				step := fmt.Sprintf("%s, cap %d, step %d (op %d)", tc.name, maxBytes, i/3, op)
				switch op {
				case 0: // Set
					v := fmt.Sprintf("%d:%s:", i, k)
					v = (v + strings.Repeat("v", 12*size+1))[:12*size+1]
					_, replaced, err := srv.Set(k, []byte(v))
					wantReplaced, rejected := o.set(string(k), v, !memc3)
					if replaced != wantReplaced || (err != nil) != rejected {
						t.Fatalf("%s: Set(%q) = (replaced %v, %v), oracle replaced %v, rejected %v", step, k, replaced, err, wantReplaced, rejected)
					}
				case 1: // an oversized Set
					if _, replaced, err := srv.Set(k, make([]byte, largest-len(k)+1+size)); err == nil || replaced {
						t.Fatalf("%s: oversized Set(%q) = (replaced %v, %v), want rejected", step, k, replaced, err)
					}
				case 2: // Get, checked with every key below
				case 3: // a Multi-Get batch
					batch := make([][]byte, size%9)
					for j := range batch {
						batch[j] = findPool[(ki+j*(size/9+1))%len(findPool)]
					}
					fired := 0
					var res MGetResult
					srv.HandleMGet(batch, func(r MGetResult) { res, fired = r, fired+1 })
					pd.Run()
					if fired != 1 || len(res.Values) != len(batch) {
						t.Fatalf("%s: done fired %d times with %d values for %d keys", step, fired, len(res.Values), len(batch))
					}
					found := 0
					for j, bk := range batch {
						want, ok := o.vals[string(bk)]
						if got := res.Values[j]; (got != nil) != ok || string(got) != want {
							t.Fatalf("%s: batch key %d (%q) = %q, oracle (%q, %v)", step, j, bk, got, want, ok)
						}
						if ok {
							o.touch(string(bk))
							found++
						}
					}
					if res.Found != found {
						t.Fatalf("%s: batch found %d, oracle %d", step, res.Found, found)
					}
				}
				for _, pk := range findPool {
					want, ok := o.vals[string(pk)]
					if got, stored := srv.Get(pk); stored != ok || string(got) != want {
						t.Fatalf("%s: Get(%q) = (%q, %v), oracle (%q, %v)", step, pk, got, stored, want, ok)
					}
				}
				var lru []string
				for _, ref := range lruOrder(srv.Store) {
					lru = append(lru, string(srv.Store.Key(srv.Store.Get(ref))))
				}
				if n := liveItems(srv.Store); n != len(o.vals) || !slices.Equal(lru, o.lru) {
					t.Fatalf("%s: %d live items in LRU order %q, oracle %d in %q", step, n, lru, len(o.vals), o.lru)
				}
				if srv.Store.usedBytes != o.used || srv.Evictions != uint64(o.evictions) {
					t.Fatalf("%s: %d bytes charged and %d evictions, oracle %d and %d", step, srv.Store.usedBytes, srv.Evictions, o.used, o.evictions)
				}
			}
		}
	})
}
