// Package cuckoomap is a native (non-simulated) generic implementation of
// the hash-table design the characterization recommends for read-dominated
// workloads: a 2-way bucketized cuckoo hash map with 4 slots per bucket —
// the (2,4) BCHT of Fig. 5 — with 8-bit tags for cheap slot prefiltering
// (the MemC3 trick) and partial-key cuckoo relocation.
//
// Unlike internal/cuckoo, which executes on the simulated machine for the
// benchmark suite, this package is plain Go intended for real use: constant
// two-bucket lookups, ~95% maximum occupancy, automatic growth, and
// deterministic iteration cost. It is the "what should I actually build
// from these results" artifact of the study.
//
// The map is not safe for concurrent use; wrap it with your own
// synchronization (read-mostly workloads do well behind a sync.RWMutex, or
// shard it).
package cuckoomap

import (
	"fmt"
	"math/bits"
)

const (
	slotsPerBucket = 4
	maxKicks       = 512
	// minBuckets keeps the smallest map at one cache line of tags.
	minBuckets = 8
)

// Map is a (2,4) bucketized cuckoo hash map from K to V. The caller
// supplies the hash function (use hash/maphash or any well-mixed 64-bit
// hash); everything else — bucket choice, tags, relocation, growth — is
// internal.
type Map[K comparable, V any] struct {
	hash    func(K) uint64
	buckets []bucket[K, V]
	mask    uint64
	count   int
	grows   int
}

type bucket[K comparable, V any] struct {
	tags [slotsPerBucket]uint8 // 0 = empty
	hash [slotsPerBucket]uint64
	keys [slotsPerBucket]K
	vals [slotsPerBucket]V
}

// New creates an empty map with the given hash function and optional
// initial capacity hint.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func New[K comparable, V any](hash func(K) uint64, capacityHint int) *Map[K, V] {
	if hash == nil {
		panic("cuckoomap: nil hash function")
	}
	n := minBuckets
	for n*slotsPerBucket*9 < capacityHint*10 { // hint / 0.9 occupancy
		n *= 2
	}
	return &Map[K, V]{
		hash:    hash,
		buckets: make([]bucket[K, V], n),
		mask:    uint64(n - 1),
	}
}

// Len returns the number of stored entries.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (m *Map[K, V]) Len() int { return m.count }

// Buckets returns the current bucket count (for tests and sizing checks).
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (m *Map[K, V]) Buckets() int { return len(m.buckets) }

// Grows returns how many times the table has doubled.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (m *Map[K, V]) Grows() int { return m.grows }

// LoadFactor returns entries / slots.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (m *Map[K, V]) LoadFactor() float64 {
	return float64(m.count) / float64(len(m.buckets)*slotsPerBucket)
}

func tagOf(h uint64) uint8 {
	t := uint8(h >> 56)
	if t == 0 {
		t = 1
	}
	return t
}

func (m *Map[K, V]) bucket1(h uint64) uint64 { return h & m.mask }

// bucket2 derives the alternate bucket from the current bucket and the tag
// alone (partial-key cuckoo hashing), so relocation never needs to re-hash
// the key.
func (m *Map[K, V]) bucket2(b1 uint64, tag uint8) uint64 {
	return (b1 ^ (uint64(tag) * 0x5bd1e995)) & m.mask
}

// Get returns the value stored for key.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (m *Map[K, V]) Get(key K) (V, bool) {
	h := m.hash(key)
	tag := tagOf(h)
	b1 := m.bucket1(h)
	if v, ok := m.searchBucket(b1, tag, h, key); ok {
		return v, true
	}
	return m.searchBucket(m.bucket2(b1, tag), tag, h, key)
}

func (m *Map[K, V]) searchBucket(b uint64, tag uint8, h uint64, key K) (V, bool) {
	bk := &m.buckets[b]
	for s := 0; s < slotsPerBucket; s++ {
		// Tag prefilter (one byte compare), then full hash, then the key
		// itself — the same funnel the SIMD designs use.
		if bk.tags[s] == tag && bk.hash[s] == h && bk.keys[s] == key {
			return bk.vals[s], true
		}
	}
	var zero V
	return zero, false
}

// Put stores (key, value), replacing any existing entry. The table grows
// automatically when relocation fails.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (m *Map[K, V]) Put(key K, value V) {
	h := m.hash(key)
	for {
		if m.tryPut(key, value, h) {
			return
		}
		m.grow()
	}
}

func (m *Map[K, V]) tryPut(key K, value V, h uint64) bool {
	tag := tagOf(h)
	b1 := m.bucket1(h)
	b2 := m.bucket2(b1, tag)

	// Replace in place.
	for _, b := range [2]uint64{b1, b2} {
		bk := &m.buckets[b]
		for s := 0; s < slotsPerBucket; s++ {
			if bk.tags[s] == tag && bk.hash[s] == h && bk.keys[s] == key {
				bk.vals[s] = value
				return true
			}
		}
	}
	// Empty slot in a candidate bucket.
	for _, b := range [2]uint64{b1, b2} {
		if m.placeInBucket(b, tag, h, key, value) {
			m.count++
			return true
		}
	}
	// Random-walk eviction, MemC3-style. The walk alternates buckets
	// deterministically from the hash so the structure stays reproducible.
	b := b1
	if h&(1<<57) != 0 {
		b = b2
	}
	curTag, curHash, curKey, curVal := tag, h, key, value
	for kick := 0; kick < maxKicks; kick++ {
		s := int((curHash>>48)+uint64(kick)) % slotsPerBucket
		bk := &m.buckets[b]
		bk.tags[s], curTag = curTag, bk.tags[s]
		bk.hash[s], curHash = curHash, bk.hash[s]
		bk.keys[s], curKey = curKey, bk.keys[s]
		bk.vals[s], curVal = curVal, bk.vals[s]

		b = m.bucket2(b, curTag)
		if m.placeInBucket(b, curTag, curHash, curKey, curVal) {
			m.count++
			return true
		}
	}
	// The walk exhausted its kicks with one entry still displaced (held in
	// cur*). Grow the table, carrying the displaced entry into the doubled
	// table; the original key was already placed during the walk.
	m.growWith(curTag, curHash, curKey, curVal)
	return true
}

func (m *Map[K, V]) placeInBucket(b uint64, tag uint8, h uint64, key K, value V) bool {
	bk := &m.buckets[b]
	for s := 0; s < slotsPerBucket; s++ {
		if bk.tags[s] == 0 {
			bk.tags[s] = tag
			bk.hash[s] = h
			bk.keys[s] = key
			bk.vals[s] = value
			return true
		}
	}
	return false
}

// Delete removes key, reporting whether it was present.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (m *Map[K, V]) Delete(key K) bool {
	h := m.hash(key)
	tag := tagOf(h)
	b1 := m.bucket1(h)
	for _, b := range [2]uint64{b1, m.bucket2(b1, tag)} {
		bk := &m.buckets[b]
		for s := 0; s < slotsPerBucket; s++ {
			if bk.tags[s] == tag && bk.hash[s] == h && bk.keys[s] == key {
				var zeroK K
				var zeroV V
				bk.tags[s] = 0
				bk.hash[s] = 0
				bk.keys[s] = zeroK
				bk.vals[s] = zeroV
				m.count--
				return true
			}
		}
	}
	return false
}

// Range calls fn for every entry until fn returns false. Iteration order is
// unspecified but deterministic for an unchanged map.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (m *Map[K, V]) Range(fn func(K, V) bool) {
	for i := range m.buckets {
		bk := &m.buckets[i]
		for s := 0; s < slotsPerBucket; s++ {
			if bk.tags[s] != 0 {
				if !fn(bk.keys[s], bk.vals[s]) {
					return
				}
			}
		}
	}
}

// grow doubles the table and re-places every entry.
func (m *Map[K, V]) grow() {
	m.growWith(0, 0, *new(K), *new(V))
}

// growWith doubles the table and re-places every entry, plus an optional
// carried entry (tag != 0) displaced by a failed eviction walk.
func (m *Map[K, V]) growWith(carryTag uint8, carryHash uint64, carryKey K, carryVal V) {
	old := m.buckets
	n := len(old) * 2
	if n > 1<<40 {
		panic(fmt.Sprintf("cuckoomap: refusing to grow beyond %d buckets", len(old)))
	}
	m.buckets = make([]bucket[K, V], n)
	m.mask = uint64(n - 1)
	m.grows++
	m.count = 0
	// Every path through tryPut counts successful inserts, and a failed
	// tryPut recurses into another growWith that counts the entry instead,
	// so the accounting stays exact.
	reinsert := func(tag uint8, h uint64, k K, v V) {
		_ = tag
		if !m.tryPut(k, v, h) {
			// Extremely unlikely immediately after doubling; tryPut grew
			// again (carrying the entry), so nothing more to do.
			return
		}
	}
	for i := range old {
		bk := &old[i]
		for s := 0; s < slotsPerBucket; s++ {
			if bk.tags[s] != 0 {
				reinsert(bk.tags[s], bk.hash[s], bk.keys[s], bk.vals[s])
			}
		}
	}
	if carryTag != 0 {
		reinsert(carryTag, carryHash, carryKey, carryVal)
	}
}

// sanity check that bucket count stays a power of two
var _ = bits.OnesCount64
