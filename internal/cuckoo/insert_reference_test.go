package cuckoo

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"simdhtbench/internal/mem"
)

// refCase is one configuration of the insert-vs-reference differential.
type refCase struct {
	layout  Layout
	seed    int64
	lf      float64 // fill target; 1.0 fills to failure
	cap     int     // maxBFSNodes of both tables
	prefill int     // keys both tables hold before the fill
}

func (c refCase) String() string {
	return fmt.Sprintf("%s seed=%d lf=%.2f cap=%d prefill=%d", c.layout, c.seed, c.lf, c.cap, c.prefill)
}

// refCaseFrom maps raw (fuzzed or drawn) values onto a valid case: N 2–4,
// M 1–8, key and payload widths 16/32/64, split or interleaved, 3–10 bucket
// bits, a target up to load factor 1.0, a cap of 1–2048 buckets (capacity's
// low 11 bits) and 0–31 keys put in before the fill (its top 5 bits, so
// every corpus entry, all of whose capacities are below 2048, still fills
// an empty table).
func refCaseFrom(n, m, widths, bucketBits uint8, split bool, seed int64, lfPct uint8, capacity uint16) refCase {
	w := []int{16, 32, 64}
	l := Layout{
		N:          2 + int(n%3),
		M:          1 + int(m%8),
		KeyBits:    w[widths%3],
		ValBits:    w[widths/3%3],
		BucketBits: 3 + int(bucketBits%8),
	}
	l.Split = split && l.M > 1
	return refCase{layout: l, seed: seed, lf: float64(lfPct%101) / 100,
		cap: 1 + int(capacity)%DefaultMaxBFSNodes, prefill: int(capacity) / DefaultMaxBFSNodes}
}

// newRefPair builds two identical tables, each first in its own address
// space so their arenas share base addresses (and hence charged cache
// behaviour): the production table and the reference.
func newRefPair(t *testing.T, c refCase) (*Table, *refTable) {
	t.Helper()
	a, err := New(mem.NewAddressSpace(), c.layout, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(mem.NewAddressSpace(), c.layout, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	a.maxBFSNodes, b.maxBFSNodes = c.cap, c.cap
	return a, newRefTable(b)
}

func arenaBytes(t *Table) []byte { return t.Arena.Bytes(0, t.Arena.Size()) }

// checkInsertMatchesReference drives one case through both search
// implementations and fails on the first divergence.
//
// Per-insert: random keys (zero included, so the error path is compared
// too) go in through Insert, InsertNew (every other uncharged attempt) or
// InsertCharged, with an occasional Delete, until the target load factor
// or an attempt budget; after every insert the error, arena bytes, count,
// relocations and modelled BFS node count must match, and after every
// charged one the two engines' cycles, memory cycles, op count and
// per-class cycles. InsertNew of a key the table holds must return
// ErrExists where the reference updates the payload in place (to the same
// value). After every attempt a stored key goes in again through InsertNew
// with another payload, which must return ErrExists and leave the arena,
// the shadow keys and the count as the reference's.
//
// Fill: fresh tables first take c.prefill odd keys (never a fill's draw)
// whose payloads are not PayloadFor. FillRandom must then return the
// reference's keys and load factor, leave identical tables in which every
// pre-filled key looks up its own payload, and — when it reaches its target
// — leave rng exactly where the one-key-at-a-time fill leaves it.
func checkInsertMatchesReference(t *testing.T, c refCase) refFound {
	t.Helper()
	a, ref := newRefPair(t, c)
	ea, eb := enginForTest(), enginForTest()
	rng := rand.New(rand.NewSource(c.seed))
	slots := c.layout.Slots()
	target := int(c.lf * float64(slots))
	var stored []uint64
	for attempt := 0; attempt < 2*slots+64 && a.Count() < target; attempt++ {
		if len(stored) > 0 && rng.Intn(16) == 0 {
			i := rng.Intn(len(stored))
			k := stored[i]
			stored = slices.Delete(stored, i, i+1)
			if a.Delete(k) != ref.Delete(k) {
				t.Fatalf("%v: Delete(%#x) diverges", c, k)
			}
			continue
		}
		key := (rng.Uint64() & c.layout.KeyMask()) &^ 1
		val := PayloadFor(key, c.layout.ValBits)
		charged := rng.Intn(3) == 0
		before := a.Count()
		var errA, errB error
		switch {
		case charged:
			errA, errB = a.InsertCharged(ea, key, val), ref.insertCharged(eb, key, val)
		case attempt%2 == 1:
			_, held := a.Lookup(key)
			held = held && key != 0 // Lookup(0) finds an empty slot
			errA, errB = a.InsertNew(key, val), ref.insert(key, val)
			if held {
				if errA != ErrExists || errB != nil {
					t.Fatalf("%v: InsertNew %d of held key %#x: err %v, reference %v; want ErrExists and nil", c, attempt, key, errA, errB)
				}
				errA = nil
			}
		default:
			errA, errB = a.Insert(key, val), ref.insert(key, val)
		}
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("%v: insert %d of %#x: err %v, reference %v", c, attempt, key, errA, errB)
		}
		if a.lastBFSNodes != ref.lastBFSNodes || !slices.Equal(a.lastMoves, ref.lastMoves) {
			t.Fatalf("%v: insert %d of %#x: bfs nodes %d moves %v, reference %d %v",
				c, attempt, key, a.lastBFSNodes, a.lastMoves, ref.lastBFSNodes, ref.lastMoves)
		}
		if a.Count() != ref.Count() || !bytes.Equal(arenaBytes(a), arenaBytes(ref.Table)) {
			t.Fatalf("%v: insert %d of %#x: tables diverge (count %d vs %d)", c, attempt, key, a.Count(), ref.Count())
		}
		if charged && (ea.Cycles() != eb.Cycles() || ea.MemCycles() != eb.MemCycles() ||
			ea.Ops() != eb.Ops() || !maps.Equal(opCycles(ea), opCycles(eb))) {
			t.Fatalf("%v: charged insert %d of %#x: cycles %v mem %v ops %d, reference %v %v %d",
				c, attempt, key, ea.Cycles(), ea.MemCycles(), ea.Ops(), eb.Cycles(), eb.MemCycles(), eb.Ops())
		}
		if a.Count() > before {
			stored = append(stored, key)
		}
		if len(stored) > 0 {
			k := stored[attempt%len(stored)]
			if err := a.InsertNew(k, ^PayloadFor(k, c.layout.ValBits)&c.layout.ValMask()); err != ErrExists {
				t.Fatalf("%v: InsertNew of stored key %#x after insert %d: err %v, want ErrExists", c, k, attempt, err)
			}
			if a.Count() != ref.Count() || !bytes.Equal(arenaBytes(a), arenaBytes(ref.Table)) || !slices.Equal(a.shadowKeys, ref.shadowKeys) {
				t.Fatalf("%v: InsertNew of stored key %#x after insert %d changed the table", c, k, attempt)
			}
		}
	}

	a, ref2 := newRefPair(t, c)
	pre := map[uint64]uint64{}
	for range c.prefill {
		key := rng.Uint64()&c.layout.KeyMask() | 1
		val := PayloadFor(key, c.layout.ValBits) ^ 1
		errA, errB := a.Insert(key, val), ref2.insert(key, val)
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("%v: pre-fill insert of %#x: err %v, reference %v", c, key, errA, errB)
		}
		if errA != nil {
			break
		}
		pre[key] = val
	}
	rngA, rngB := rand.New(rand.NewSource(c.seed+1)), rand.New(rand.NewSource(c.seed+1))
	keysA, lfA := a.FillRandom(c.lf, rngA)
	keysB, lfB := ref2.fillRandom(c.lf, rngB)
	if !slices.Equal(keysA, keysB) || lfA != lfB {
		t.Fatalf("%v: FillRandom returned %d keys at lf %v, reference %d at %v", c, len(keysA), lfA, len(keysB), lfB)
	}
	if !bytes.Equal(arenaBytes(a), arenaBytes(ref2.Table)) {
		t.Fatalf("%v: FillRandom tables diverge", c)
	}
	for key, val := range pre {
		if got, ok := a.Lookup(key); !ok || got != val {
			t.Fatalf("%v: pre-filled key %#x looks up (%#x, %v) after FillRandom, want %#x", c, key, got, ok, val)
		}
	}
	if a.Count() >= target && rngA.Uint64() != rngB.Uint64() {
		t.Fatalf("%v: FillRandom reached its target but left rng elsewhere", c)
	}
	return refFound{
		dequeued:     ref.found.dequeued + ref2.found.dequeued,
		dequeuedDeep: ref.found.dequeuedDeep + ref2.found.dequeuedDeep,
		swept:        ref.found.swept + ref2.found.swept,
		sweptPastCap: ref.found.sweptPastCap + ref2.found.sweptPastCap,
	}
}

// TestInsertMatchesReference checks the generation-time eviction search
// against the dequeue-time reference over random layouts at caps of 4, 16,
// 64 and the default, every other case filling a table that already holds
// 1–8 keys, and requires the reference to have ended each way it can: found
// by dequeue within and past the modelled-count bound, and found by the
// sweep below and past the cap.
func TestInsertMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	caps := []int{4, 16, 64, DefaultMaxBFSNodes}
	var total refFound
	for i := 0; i < 160; i++ {
		c := refCaseFrom(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)),
			uint8(rng.Intn(256)), rng.Intn(2) == 0, rng.Int63(), uint8(50+rng.Intn(51)), 0)
		c.cap = caps[i%len(caps)]
		if i%2 == 1 {
			c.prefill = 1 + i/2%8
		}
		f := checkInsertMatchesReference(t, c)
		total.dequeued += f.dequeued
		total.dequeuedDeep += f.dequeuedDeep
		total.swept += f.swept
		total.sweptPastCap += f.sweptPastCap
	}
	if total.dequeued == 0 || total.dequeuedDeep == 0 || total.swept == 0 || total.sweptPastCap == 0 {
		t.Errorf("reference search endings not all exercised: %+v", total)
	}
	t.Logf("reference search endings: %+v", total)
}

// FuzzInsertMatchesReference fuzzes the layout, seed, fill target, cap and
// pre-filled key count of the insert-vs-reference differential.
func FuzzInsertMatchesReference(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(4), uint8(5), false, int64(1), uint8(100), uint16(3))          // (3,1) 32/32 to failure, cap 4
	f.Add(uint8(0), uint8(3), uint8(8), uint8(4), true, int64(7), uint8(95), uint16(15))           // split (2,4) 64/64, cap 16
	f.Add(uint8(2), uint8(7), uint8(0), uint8(2), false, int64(42), uint8(100), uint16(63))        // (4,8) 16/16, cap 64
	f.Add(uint8(0), uint8(0), uint8(4), uint8(3), false, int64(3), uint8(100), uint16(6<<11|2047)) // (2,1) 32/32 to failure after 6 keys
	f.Fuzz(func(t *testing.T, n, m, widths, bucketBits uint8, split bool, seed int64, lfPct uint8, capacity uint16) {
		checkInsertMatchesReference(t, refCaseFrom(n, m, widths, bucketBits, split, seed, lfPct, capacity))
	})
}
