package kvs

import (
	"bytes"
	"errors"
	"math/rand"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/cache"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

// MemC3Index is the state-of-the-art CPU-optimized non-SIMD baseline: the
// MemC3 hash table (Fan et al., NSDI'13) — a 2-way bucketized cuckoo hash
// table with 4 slots per bucket, storing an 8-bit tag plus a 64-bit item
// pointer per slot. Lookups compare tags with scalar instructions; every
// tag match is verified against the full key at the item (tags are lossy).
//
// Relocation uses MemC3's partial-key cuckoo hashing: an item's alternate
// bucket is derived from its current bucket and tag alone (b' = b XOR
// h(tag)), so evictions never need the full key.
type MemC3Index struct {
	arena      *mem.Arena
	keyver     *mem.Arena // striped key-version counters (optimistic reads)
	bucketBits int
	rng        *rand.Rand
}

const (
	memc3Slots       = 4
	memc3TagBytes    = 1
	memc3PtrBytes    = 8
	memc3BucketBytes = memc3Slots * (memc3TagBytes + memc3PtrBytes) // 36 B
	memc3MaxKicks    = 512
	// MemC3 guards lookups with a striped array of key-version counters
	// (optimistic locking): a reader samples the key's counter before and
	// after probing and retries on a change. 8192 64-bit counters, as in
	// the MemC3 paper.
	memc3KeyVers = 8192
)

// NewMemC3Index sizes the table for at least `capacity` items at ~90%
// occupancy.
func NewMemC3Index(space *mem.AddressSpace, capacity int, seed int64) *MemC3Index {
	bits := 4
	for bits < 31 && float64(capacity) > 0.9*float64(memc3Slots)*float64(int(1)<<bits) {
		bits++
	}
	return &MemC3Index{
		arena:      space.Alloc((1<<bits)*memc3BucketBytes + mem.LineSize),
		keyver:     space.Alloc(memc3KeyVers * 8),
		bucketBits: bits,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Name implements Index.
func (x *MemC3Index) Name() string { return "MemC3" }

// Width implements Index (scalar backend).
func (x *MemC3Index) Width() int { return arch.WidthScalar }

// tagOf derives the 8-bit tag; tag 0 marks an empty slot, so tags are
// remapped into [1,255].
func tagOf(hash32 uint32) uint8 {
	t := uint8(hash32 >> 24)
	if t == 0 {
		t = 1
	}
	return t
}

func (x *MemC3Index) bucketOf(hash32 uint32) int {
	return int(hash32) & (1<<x.bucketBits - 1)
}

// altBucket is MemC3's partial-key alternate: b' = b XOR h(tag).
func (x *MemC3Index) altBucket(b int, tag uint8) int {
	h := uint32(tag) * 0x5bd1e995 // Murmur-style odd constant
	return (b ^ int(h)) & (1<<x.bucketBits - 1)
}

func (x *MemC3Index) slotOff(b, s int) int {
	return b*memc3BucketBytes + s*(memc3TagBytes+memc3PtrBytes)
}

func (x *MemC3Index) tagAt(b, s int) uint8 { return x.arena.Bytes(x.slotOff(b, s), 1)[0] }

func (x *MemC3Index) ptrAt(b, s int) uint64 { return x.arena.Read64(x.slotOff(b, s) + 1) }

func (x *MemC3Index) setSlot(b, s int, tag uint8, ptr uint64) {
	x.arena.Bytes(x.slotOff(b, s), 1)[0] = tag
	x.arena.Write64(x.slotOff(b, s)+1, ptr)
}

// Insert implements Index, using greedy random-walk cuckoo eviction over
// (tag, pointer) pairs.
func (x *MemC3Index) Insert(hash32, ref uint32) error {
	tag := tagOf(hash32)
	ptr := uint64(ref) + 1 // ptr 0 marks empty alongside tag 0
	b1 := x.bucketOf(hash32)
	b2 := x.altBucket(b1, tag)
	for _, b := range []int{b1, b2} {
		for s := 0; s < memc3Slots; s++ {
			if x.tagAt(b, s) == 0 {
				x.setSlot(b, s, tag, ptr)
				return nil
			}
		}
	}
	// Random-walk eviction starting from a random candidate bucket.
	b := b1
	if x.rng.Intn(2) == 1 {
		b = b2
	}
	curTag, curPtr := tag, ptr
	for kick := 0; kick < memc3MaxKicks; kick++ {
		s := x.rng.Intn(memc3Slots)
		vTag, vPtr := x.tagAt(b, s), x.ptrAt(b, s)
		x.setSlot(b, s, curTag, curPtr)
		curTag, curPtr = vTag, vPtr
		b = x.altBucket(b, curTag)
		for s := 0; s < memc3Slots; s++ {
			if x.tagAt(b, s) == 0 {
				x.setSlot(b, s, curTag, curPtr)
				return nil
			}
		}
	}
	return errors.New("kvs: MemC3 table full (eviction walk exhausted)")
}

// LookupBatch implements Index: sequential scalar tag probing with full-key
// verification on each tag match. False tag matches continue probing, which
// is why the tag design trades verification cost for index compactness.
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (x *MemC3Index) LookupBatch(e *engine.Engine, store *ItemStore, keys [][]byte, hashes []uint32, refs []uint32) int {
	hits := 0
	for i, h := range hashes {
		refs[i] = NoRef
		tag := tagOf(h)
		b1 := x.bucketOf(h)
		// Optimistic concurrency: sample the key's version counter before
		// and after the probe (two loads + a compare; the counter array is
		// small and stays cache-resident, but the loads and the validation
		// are on the critical path of every lookup).
		x.readKeyVersion(e, h)
		ref1, ok := x.probeBucket(e, store, b1, tag, keys[i])
		if !ok {
			ref1, ok = x.probeBucket(e, store, x.altBucket(b1, tag), tag, keys[i])
		}
		x.readKeyVersion(e, h)
		e.ScalarCompare() // version validation
		if ok {
			refs[i] = ref1
			hits++
		}
	}
	return hits
}

func (x *MemC3Index) probeBucket(e *engine.Engine, store *ItemStore, b int, tag uint8, key []byte) (uint32, bool) {
	for s := 0; s < memc3Slots; s++ {
		got := uint8(e.ScalarLoad(x.arena, x.slotOff(b, s), 16) & 0xFF)
		e.ScalarCompare()
		if got != tag {
			continue
		}
		// Tag match: unpredictable branch, then chase the pointer and
		// verify the full key at the item.
		e.Charge(arch.OpBranchMispredict, arch.WidthScalar)
		ptr := e.ScalarLoad(x.arena, x.slotOff(b, s)+1, 64)
		if ptr == 0 {
			continue
		}
		ref := uint32(ptr - 1)
		if verifyKey(e, store, ref, key) {
			return ref, true
		}
	}
	return 0, false
}

func (x *MemC3Index) readKeyVersion(e *engine.Engine, hash32 uint32) uint64 {
	// An optimistic version read is an acquire-ordered load: the fence
	// keeps the subsequent probe loads from being reordered before it.
	e.Charge(arch.OpFence, arch.WidthScalar)
	off := int(hash32%memc3KeyVers) * 8
	return e.ScalarLoad(x.keyver, off, 64)
}

// Warm implements Index.
func (x *MemC3Index) Warm(h *cache.Hierarchy) {
	h.Touch(x.arena.Base(), x.arena.Size())
	h.Touch(x.keyver.Base(), x.keyver.Size())
}

// Find implements Index: the two-bucket tag scan, verified at the item.
func (x *MemC3Index) Find(store *ItemStore, hash32 uint32, key []byte) uint32 {
	if _, _, ref, ok := x.slotOf(store, hash32, key); ok {
		return ref
	}
	return NoRef
}

// Delete removes the entry whose tag matches and whose item key equals key.
func (x *MemC3Index) Delete(store *ItemStore, hash32 uint32, key []byte) bool {
	b, s, _, ok := x.slotOf(store, hash32, key)
	if ok {
		x.setSlot(b, s, 0, 0)
	}
	return ok
}

// slotOf finds the entry whose tag matches hash32's and whose item key
// equals key, scanning the primary bucket's slots and then the alternate's,
// the order LookupBatch probes them in. It is uncharged.
func (x *MemC3Index) slotOf(store *ItemStore, hash32 uint32, key []byte) (b, s int, ref uint32, ok bool) {
	tag := tagOf(hash32)
	b1 := x.bucketOf(hash32)
	for _, b := range [2]int{b1, x.altBucket(b1, tag)} {
		for s := 0; s < memc3Slots; s++ {
			if x.tagAt(b, s) != tag {
				continue
			}
			ptr := x.ptrAt(b, s)
			if ptr == 0 {
				continue
			}
			ref := uint32(ptr - 1)
			if it := store.Get(ref); it != nil && bytes.Equal(store.Key(it), key) {
				return b, s, ref, true
			}
		}
	}
	return 0, 0, NoRef, false
}

var _ Index = (*MemC3Index)(nil)
