package memslap

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"simdhtbench/internal/hashfn"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/workload"
)

// refLoadRingKeys is the key-major load loop the server-major load
// replaced, kept as its oracle: it generates the deduplicated key sequence
// and hands each (key, value) pair with the key's hashfn.HashBytes value to
// place, which sets it on the key's replicas and returns the failing server
// with its error.
func refLoadRingKeys(count int, item func(i int) (key, value []byte), place func(key, value []byte, h uint64) (int, error)) ([][]byte, error) {
	keys := make([][]byte, 0, count)
	seen := make(map[uint32]struct{}, count)
	for i := 0; len(keys) < count; i++ {
		if i > count*2+1000 {
			return nil, &LoadError{Server: -1, Loaded: len(keys), Want: count,
				Err: fmt.Errorf("too many 32-bit hash collisions")}
		}
		key, value := item(i)
		h := hashfn.HashBytes(key)
		h32 := hashfn.Mix64to32(h)
		if _, dup := seen[h32]; dup {
			continue
		}
		seen[h32] = struct{}{}
		if srv, err := place(key, value, h); err != nil {
			return nil, &LoadError{Server: srv, Loaded: len(keys), Want: count, Err: err}
		}
		keys = append(keys, key)
	}
	return keys, nil
}

// refLoad is the reference Fleet.load: refLoadRingKeys with a place that
// Sets each key on its arc's replicas, in replica order.
func refLoad(f *Fleet, count int, item func(i int) (key, value []byte)) ([][]byte, error) {
	keyArc := make([]int32, 0, count)
	keys, err := refLoadRingKeys(count, item, func(key, value []byte, h uint64) (int, error) {
		a := f.arcs.arcOf(h)
		keyArc = append(keyArc, a)
		for _, s := range f.arcs.arcOwners(a) {
			if _, _, err := f.Servers[s].Set(key, value); err != nil {
				return s, err
			}
		}
		return -1, nil
	})
	if err != nil {
		return nil, err
	}
	f.keys, f.arcs.keyArc = keys, keyArc
	return keys, nil
}

// refLoadFleet and refLoadETC are LoadFleet and LoadETC on the reference
// loop, with every value built at its key's draw.
func refLoadFleet(f *Fleet, count, keyBytes, valueBytes int) ([][]byte, error) {
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	return refLoad(f, count, func(i int) ([]byte, []byte) { return makeKey(i, keyBytes), value })
}

func refLoadETC(f *Fleet, count int, seed int64) ([][]byte, error) {
	etc := workload.NewETC(seed)
	return refLoad(f, count, func(i int) ([]byte, []byte) {
		it := etc.Item()
		value := make([]byte, it.ValLen)
		for j := range value {
			value[j] = byte('A' + (i+j)%26)
		}
		return makeKey(i, it.KeyLen), value
	})
}

// FuzzFleetLoadMatchesReference loads one fleet with LoadFleet or LoadETC
// and an identically built one with the key-major reference loop, and
// fails unless both return the same keys (the load's with no spare
// capacity, though they share one buffer) with the same arcs and leave every
// server's item store and index deeply equal, or, when a Set fails, unless
// both return the same *LoadError. servers picks 1–8 servers, repl the
// replication R in 1..min(3, servers), backend MemC3, horizontal or
// vertical, etc the item kind, items 1–3,000 items. tight 0 sizes every
// index for all the items; otherwise for items·tight/256 of them, which
// below a server's share makes a Set fail.
func FuzzFleetLoadMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(2), false, uint16(500), uint8(0), int64(1))
	f.Fuzz(func(t *testing.T, servers, repl, backend uint8, etc bool, items uint16, tight uint8, seed int64) {
		n := int(servers)%8 + 1
		R := int(repl)%min(3, n) + 1
		count := int(items)%3000 + 1
		capacity := count
		if tight != 0 {
			capacity = max(1, count*int(tight)/256)
		}
		build := func() *Fleet {
			return buildFleetIndex(t, n, R, func(space *mem.AddressSpace, i int) (kvs.Index, error) {
				switch backend % 3 {
				case 0:
					return kvs.NewMemC3Index(space, capacity, seed+int64(i)), nil
				case 1:
					return kvs.NewHorizontalIndex(space, capacity, 128, seed+int64(i))
				}
				return kvs.NewVerticalIndex(space, capacity, 128, seed+int64(i))
			})
		}
		got, want := build(), build()
		var gotKeys, wantKeys [][]byte
		var gotErr, wantErr error
		if etc {
			gotKeys, gotErr = got.LoadETC(count, seed)
			wantKeys, wantErr = refLoadETC(want, count, seed)
		} else {
			gotKeys, gotErr = got.LoadFleet(count, 20, 32)
			wantKeys, wantErr = refLoadFleet(want, count, 20, 32)
		}
		shape := fmt.Sprintf("%d servers, R=%d, backend %d, etc=%v, %d items, index for %d", n, R, backend%3, etc, count, capacity)
		if gotErr != nil || wantErr != nil {
			var g, w *LoadError
			if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) {
				t.Fatalf("%s: load returned %v, the reference %v; want two *LoadError", shape, gotErr, wantErr)
			}
			if g.Server != w.Server || g.Loaded != w.Loaded || g.Want != w.Want || g.Error() != w.Error() {
				t.Fatalf("%s: load failed with %+v (%v), the reference with %+v (%v)", shape, *g, g, *w, w)
			}
			return
		}
		if !reflect.DeepEqual(gotKeys, wantKeys) {
			t.Fatalf("%s: loaded keys differ from the reference's", shape)
		}
		for k, key := range gotKeys {
			if cap(key) != len(key) {
				t.Fatalf("%s: key %d has %d bytes of room past its %d, where an append would write over the next key", shape, k, cap(key)-len(key), len(key))
			}
		}
		if !reflect.DeepEqual(got.keys, want.keys) || !reflect.DeepEqual(got.arcs.keyArc, want.arcs.keyArc) {
			t.Fatalf("%s: the fleet's keys or their arcs differ from the reference's", shape)
		}
		for s := range got.Servers {
			if !reflect.DeepEqual(got.Servers[s].Store, want.Servers[s].Store) {
				t.Fatalf("%s: server %d's item store differs from the reference's", shape, s)
			}
			if !reflect.DeepEqual(got.Servers[s].Index, want.Servers[s].Index) {
				t.Fatalf("%s: server %d's index differs from the reference's", shape, s)
			}
		}
	})
}

// TestHashSetMatchesMap pins planLoad's hashSet against the
// map[uint32]struct{} it replaced: every add reports absent exactly when
// the map lacks the hash, so a repeated hash keeps its first key. Each set
// takes its n distinct hashes: hash 0 (kept outside the slots), 2^32−1,
// n/2 hashes whose probes all start at the last slot, so their chain wraps
// to slot 0 and is as long as they are many, and random hashes, with
// repeats of earlier hashes between them.
func TestHashSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 64, 1000} {
		s := newHashSet(n)
		if len(s.slots) < 2*n || len(s.slots)&(len(s.slots)-1) != 0 {
			t.Fatalf("n=%d: %d slots, want a power of two of at least %d", n, len(s.slots), 2*n)
		}
		last := uint32(len(s.slots) - 1)
		hs := []uint32{0, math.MaxUint32}
		for h := uint32(1); len(hs) < 2+n/2; h++ {
			if s.home(h) == last {
				hs = append(hs, h)
			}
		}
		want := map[uint32]struct{}{}
		add := func(h uint32) {
			_, had := want[h]
			want[h] = struct{}{}
			if absent := s.add(h); absent == had {
				t.Fatalf("n=%d: add(%#x) reported absent=%v, the map held it: %v", n, h, absent, had)
			}
		}
		var added []uint32
		for len(want) < n {
			var h uint32
			switch {
			case len(hs) > 0:
				h, hs = hs[0], hs[1:]
			case len(added) > 0 && rng.Intn(3) == 0:
				h = added[rng.Intn(len(added))]
			default:
				h = rng.Uint32()
			}
			add(h)
			added = append(added, h)
		}
		for _, h := range added {
			add(h)
		}
		if n/2 >= 2 && (s.slots[last] == 0 || s.slots[0] == 0) {
			t.Fatalf("n=%d: the chain at the last slot did not wrap to slot 0", n)
		}
	}
}
