package cuckoo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simdhtbench/internal/mem"
)

func newTable(t *testing.T, l Layout) *Table {
	t.Helper()
	tb, err := New(mem.NewAddressSpace(), l, 42)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestLayoutValidate(t *testing.T) {
	good := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
	bad := []Layout{
		{N: 1, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 10},
		{N: 2, M: 0, KeyBits: 32, ValBits: 32, BucketBits: 10},
		{N: 2, M: 4, KeyBits: 8, ValBits: 32, BucketBits: 10},
		{N: 2, M: 4, KeyBits: 32, ValBits: 12, BucketBits: 10},
		{N: 2, M: 4, KeyBits: 16, ValBits: 32, BucketBits: 20}, // buckets > keyspace
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad layout %d accepted: %+v", i, l)
		}
	}
}

func TestLayoutGeometry(t *testing.T) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12}
	if l.SlotBytes() != 8 {
		t.Errorf("SlotBytes = %d", l.SlotBytes())
	}
	if l.BucketBytes() != 32 {
		t.Errorf("BucketBytes = %d", l.BucketBytes())
	}
	if l.TableBytes() != 4096*32 {
		t.Errorf("TableBytes = %d", l.TableBytes())
	}
	if l.Slots() != 4096*4 {
		t.Errorf("Slots = %d", l.Slots())
	}
	if !l.Bucketized() {
		t.Error("m=4 must be bucketized")
	}
	if (Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 12}).Bucketized() {
		t.Error("m=1 must be non-bucketized")
	}
}

func TestLayoutForBytes(t *testing.T) {
	l, err := LayoutForBytes(2, 4, 32, 32, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if l.TableBytes() > 1<<20 {
		t.Errorf("layout %d bytes exceeds 1 MB budget", l.TableBytes())
	}
	if l.TableBytes()*2 <= 1<<20 {
		t.Errorf("layout %d bytes not maximal for 1 MB budget", l.TableBytes())
	}
	if _, err := LayoutForBytes(2, 8, 64, 64, 64); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestInsertLookupRoundTrip(t *testing.T) {
	tb := newTable(t, Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8})
	keys := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for len(keys) < 500 {
		k := uint64(rng.Uint32() | 2)
		v := uint64(rng.Uint32())
		if err := tb.Insert(k, v); err != nil {
			t.Fatalf("insert %d failed at count %d: %v", k, tb.Count(), err)
		}
		keys[k] = v
	}
	for k, v := range keys {
		got, ok := tb.Lookup(k)
		if !ok || got != v {
			t.Fatalf("Lookup(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
	if tb.Count() != len(keys) {
		t.Errorf("Count = %d, want %d", tb.Count(), len(keys))
	}
}

func TestInsertUpdatesExistingKey(t *testing.T) {
	tb := newTable(t, Layout{N: 2, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 6})
	if err := tb.Insert(10, 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(10, 2); err != nil {
		t.Fatal(err)
	}
	if tb.Count() != 1 {
		t.Errorf("Count after update = %d, want 1", tb.Count())
	}
	if v, _ := tb.Lookup(10); v != 2 {
		t.Errorf("updated value = %d, want 2", v)
	}
}

func TestInsertRejectsBadKeys(t *testing.T) {
	tb := newTable(t, Layout{N: 2, M: 2, KeyBits: 16, ValBits: 32, BucketBits: 6})
	if err := tb.Insert(0, 1); err == nil {
		t.Error("key 0 accepted")
	}
	if err := tb.Insert(1<<17, 1); err == nil {
		t.Error("oversized key accepted")
	}
	if err := tb.Insert(5, 1<<33); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestLookupMiss(t *testing.T) {
	tb := newTable(t, Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 8})
	tb.Insert(2, 7)
	if _, ok := tb.Lookup(4); ok {
		t.Error("miss reported as hit")
	}
	if _, ok := tb.Lookup(2); !ok {
		t.Error("hit reported as miss")
	}
}

func TestDelete(t *testing.T) {
	tb := newTable(t, Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 6})
	tb.Insert(8, 1)
	tb.Insert(12, 2)
	if !tb.Delete(8) {
		t.Error("Delete existing key returned false")
	}
	if tb.Delete(8) {
		t.Error("double delete returned true")
	}
	if _, ok := tb.Lookup(8); ok {
		t.Error("deleted key still found")
	}
	if v, ok := tb.Lookup(12); !ok || v != 2 {
		t.Error("delete disturbed another key")
	}
	if tb.Count() != 1 {
		t.Errorf("Count = %d, want 1", tb.Count())
	}
}

func TestEvictionPreservesAllKeys(t *testing.T) {
	// Drive a small 2-way non-bucketized table to high occupancy: the BFS
	// eviction machinery must relocate without losing or corrupting keys.
	tb := newTable(t, Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 7})
	rng := rand.New(rand.NewSource(3))
	inserted := map[uint64]uint64{}
	for {
		k := uint64(rng.Uint32() | 2)
		if _, dup := inserted[k]; dup {
			continue
		}
		v := uint64(rng.Uint32())
		if err := tb.Insert(k, v); err != nil {
			break
		}
		inserted[k] = v
	}
	if tb.LoadFactor() < 0.7 {
		t.Fatalf("3-way table stalled at LF %.2f", tb.LoadFactor())
	}
	for k, v := range inserted {
		got, ok := tb.Lookup(k)
		if !ok || got != v {
			t.Fatalf("after evictions, Lookup(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
}

// TestFig2LoadFactorShape verifies the load-factor ordering of Fig. 2:
// 2-way/1-slot ≈ 0.5, 3-way ≈ 0.9, 4-way > 3-way, and (2,4) BCHT > 0.93.
func TestFig2LoadFactorShape(t *testing.T) {
	lf := func(n, m int) float64 {
		tb := newTable(t, Layout{N: n, M: m, KeyBits: 32, ValBits: 32, BucketBits: 10})
		rng := rand.New(rand.NewSource(int64(n*10 + m)))
		_, got := tb.FillRandom(1.0, rng)
		return got
	}
	lf21 := lf(2, 1)
	lf31 := lf(3, 1)
	lf41 := lf(4, 1)
	lf24 := lf(2, 4)
	if lf21 < 0.40 || lf21 > 0.60 {
		t.Errorf("2-way LF = %.3f, want ≈0.5", lf21)
	}
	if lf31 < 0.85 {
		t.Errorf("3-way LF = %.3f, want ≥0.85", lf31)
	}
	if lf41 <= lf31 {
		t.Errorf("4-way LF %.3f not above 3-way %.3f", lf41, lf31)
	}
	if lf24 < 0.93 {
		t.Errorf("(2,4) BCHT LF = %.3f, want ≥0.93", lf24)
	}
}

func TestFillRandomTargetsLoadFactor(t *testing.T) {
	tb := newTable(t, Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 9})
	rng := rand.New(rand.NewSource(5))
	keys, lf := tb.FillRandom(0.5, rng)
	if lf < 0.49 || lf > 0.51 {
		t.Errorf("achieved LF %.3f, want ≈0.5", lf)
	}
	if len(keys) != tb.Count() {
		t.Errorf("returned %d keys, table holds %d", len(keys), tb.Count())
	}
	for _, k := range keys {
		if k%2 != 0 {
			t.Fatalf("FillRandom produced odd key %d; miss keys must stay disjoint", k)
		}
	}
}

// TestFillRandomLeavesRoomForTopUp: the returned list has room for every
// slot, so a caller that tops the table up appends to it without a copy.
func TestFillRandomLeavesRoomForTopUp(t *testing.T) {
	tb := newTable(t, Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 9})
	keys, _ := tb.FillRandom(0.5, rand.New(rand.NewSource(5)))
	if cap(keys) < tb.L.Slots() {
		t.Errorf("FillRandom returned capacity %d, want room for all %d slots", cap(keys), tb.L.Slots())
	}
}

// TestForEachVisitsAll: every key FillRandom reports is stored, with its
// payload, and the table holds nothing else.
func TestForEachVisitsAll(t *testing.T) {
	tb := newTable(t, Layout{N: 2, M: 2, KeyBits: 32, ValBits: 32, BucketBits: 8})
	rng := rand.New(rand.NewSource(9))
	keys, _ := tb.FillRandom(0.5, rng)
	if tb.Count() != len(keys) {
		t.Fatalf("table holds %d items, want %d", tb.Count(), len(keys))
	}
	for _, k := range keys {
		if v, ok := tb.Lookup(k); !ok || v != PayloadFor(k, 32) {
			t.Fatalf("key %d payload %d (found %v), want %d", k, v, ok, PayloadFor(k, 32))
		}
	}
}

// TestInsertLookupProperty is the core table invariant as a property test:
// any batch of distinct valid keys inserted into a half-filled table is
// fully retrievable with the stored payloads.
func TestInsertLookupProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		tb, err := New(mem.NewAddressSpace(), Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8}, 11)
		if err != nil {
			return false
		}
		want := map[uint64]uint64{}
		for i, r := range raw {
			k := uint64(r)
			if k == 0 {
				continue
			}
			v := uint64(i + 1)
			if err := tb.Insert(k, v); err != nil {
				return len(want) > tb.L.Slots()/2 // only acceptable if genuinely full
			}
			want[k] = v
		}
		for k, v := range want {
			got, ok := tb.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return tb.Count() == len(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPayloadForNonZero(t *testing.T) {
	for _, bits := range []int{16, 32, 64} {
		for k := uint64(2); k < 1000; k += 2 {
			if PayloadFor(k, bits) == 0 {
				t.Fatalf("PayloadFor(%d,%d) = 0; payloads must be distinguishable from empty", k, bits)
			}
		}
	}
}

func Test16BitKeyTable(t *testing.T) {
	tb := newTable(t, Layout{N: 2, M: 8, KeyBits: 16, ValBits: 32, BucketBits: 8})
	rng := rand.New(rand.NewSource(13))
	keys, lf := tb.FillRandom(0.9, rng)
	if lf < 0.85 {
		t.Fatalf("16-bit (2,8) table stalled at LF %.2f", lf)
	}
	for _, k := range keys[:100] {
		if v, ok := tb.Lookup(k); !ok || v != PayloadFor(k, 32) {
			t.Fatalf("16-bit lookup failed for key %d", k)
		}
	}
}

func TestInsertChargedAgreesWithInsert(t *testing.T) {
	// Charged and plain inserts must produce identical tables.
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 7}
	a := newTable(t, l)
	b := newTable(t, l)
	e := enginForTest()
	rng := rand.New(rand.NewSource(8))
	stored := map[uint64]uint64{}
	for i := 0; i < 400; i++ {
		k := uint64(rng.Uint32() | 2)
		v := uint64(rng.Uint32())
		errA := a.Insert(k, v)
		errB := b.InsertCharged(e, k, v)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("insert %d: plain err=%v charged err=%v", i, errA, errB)
		}
		if errA == nil {
			stored[k] = v
		}
	}
	if a.Count() != b.Count() {
		t.Fatalf("counts diverge: %d vs %d", a.Count(), b.Count())
	}
	for k := range stored {
		va, okA := a.Lookup(k)
		vb, okB := b.Lookup(k)
		if !okA || !okB || va != vb {
			t.Fatalf("key %d: plain %d (%v), charged %d (%v)", k, va, okA, vb, okB)
		}
	}
	if e.Cycles() == 0 {
		t.Error("charged insert accumulated no cycles")
	}
}

func TestInsertChargedEvictionCostsMore(t *testing.T) {
	// An insert requiring eviction must charge more than one into an empty
	// table.
	l := Layout{N: 2, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 6}
	tb := newTable(t, l)
	e := enginForTest()
	if err := tb.InsertCharged(e, 2, 1); err != nil {
		t.Fatal(err)
	}
	cheap := e.Cycles()

	// Fill near capacity, then measure an insert that needs relocation.
	rng := rand.New(rand.NewSource(3))
	tb.FillRandom(0.45, rng)
	var expensive float64
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Uint32() | 2)
		if _, dup := tb.Lookup(k); dup {
			continue
		}
		e2 := enginForTest()
		if err := tb.InsertCharged(e2, k, uint64(i+1)); err != nil {
			break
		}
		if _, moves := tb.LastEvictionStats(); moves > 0 {
			expensive = e2.Cycles()
			break
		}
	}
	if expensive == 0 {
		t.Skip("no eviction triggered at this fill level")
	}
	if expensive <= cheap {
		t.Errorf("eviction insert (%v cy) should cost more than empty insert (%v cy)", expensive, cheap)
	}
}
