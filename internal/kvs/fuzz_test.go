package kvs

import (
	"bytes"
	"fmt"
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
			if _, err := srv.Set([]byte(k), []byte(v)); err != nil {
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

// FuzzFindMatchesLookupBatch runs random Set/Replace/Delete/Get programs
// on each backend over findPool; each program byte pair is an op and a key.
// After every step, for every key of the pool, Index.Find must return the
// ref a charged one-key LookupBatch returns on a spare engine, and both
// must agree with a map oracle of what the server stores. A SIMD index
// keeps one key per 32-bit hash, so Set and Replace must reject a key
// whose hash partner is stored; MemC3 verifies full keys and keeps both.
// Set is the load-phase insert and runs only on absent keys, and Delete
// only on stored keys, as the server's callers use them.
func FuzzFindMatchesLookupBatch(f *testing.F) {
	for i := 4; i < len(findPool); i += 2 {
		if Hash32(findPool[i]) != Hash32(findPool[i+1]) {
			f.Fatalf("pool keys %q and %q no longer collide", findPool[i], findPool[i+1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 3, 0, 3, 2})             // set, set, get hit, get miss
	f.Add([]byte{0, 4, 0, 5, 1, 5, 2, 4, 0, 5, 3, 5}) // a colliding pair: set, set, replace, delete, set, get
	f.Add([]byte{1, 6, 1, 6, 1, 7, 2, 6, 1, 7, 2, 7}) // replace fresh and over, across a colliding pair
	f.Add([]byte{0, 0, 2, 0, 0, 0, 1, 0, 2, 0, 3, 0}) // set, delete, set again, replace, delete, get
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
					if stored {
						continue
					}
					_, err := srv.Set(k, []byte(v))
					if (err != nil) != rejects {
						t.Fatalf("%s: Set(%q) = %v, want rejected %v", step, k, err, rejects)
					}
					if err == nil {
						oracle[string(k)] = v
					}
				case 1: // Replace
					replaced, err := srv.Replace(k, []byte(v))
					if (err != nil) != rejects || replaced != stored {
						t.Fatalf("%s: Replace(%q) = (%v, %v), want replaced %v, rejected %v", step, k, replaced, err, stored, rejects)
					}
					if err == nil {
						oracle[string(k)] = v
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
