package cuckoomap

import (
	"fmt"
	"math/bits"
	"sync"
)

// Sharded wraps Map for concurrent use: the key space is partitioned across
// 2^k shards, each an independent cuckoo map behind its own RWMutex. Reads
// of distinct shards proceed fully in parallel, which suits the
// read-dominated workloads the characterization targets; writes contend
// only within a shard.
//
// The shard is chosen by the top bits of the key's hash, while each inner
// map uses the low bits for bucket choice, so the two selections stay
// independent.
type Sharded[K comparable, V any] struct {
	hash   func(K) uint64
	shards []shard[K, V]
	shift  uint
}

type shard[K comparable, V any] struct {
	mu sync.RWMutex
	m  *Map[K, V]
	// padding to keep adjacent shard locks off one cache line
	_ [40]byte
}

// NewSharded builds a sharded map with shardCount shards (rounded up to a
// power of two, minimum 1) and a per-shard capacity hint derived from
// capacityHint.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func NewSharded[K comparable, V any](hash func(K) uint64, shardCount, capacityHint int) *Sharded[K, V] {
	if hash == nil {
		panic("cuckoomap: nil hash function")
	}
	if shardCount < 1 {
		shardCount = 1
	}
	n := 1
	for n < shardCount {
		n *= 2
	}
	s := &Sharded[K, V]{
		hash:   hash,
		shards: make([]shard[K, V], n),
		shift:  uint(64 - bits.TrailingZeros(uint(n))),
	}
	if n == 1 {
		s.shift = 64
	}
	for i := range s.shards {
		s.shards[i].m = New[K, V](hash, capacityHint/n+1)
	}
	return s
}

func (s *Sharded[K, V]) shardFor(key K) *shard[K, V] {
	if len(s.shards) == 1 {
		return &s.shards[0]
	}
	return &s.shards[s.hash(key)>>s.shift]
}

// Get returns the value stored for key.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (s *Sharded[K, V]) Get(key K) (V, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.m.Get(key)
	sh.mu.RUnlock()
	return v, ok
}

// Put stores (key, value), replacing any existing entry.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (s *Sharded[K, V]) Put(key K, value V) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.m.Put(key, value)
	sh.mu.Unlock()
}

// Delete removes key, reporting whether it was present.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (s *Sharded[K, V]) Delete(key K) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	ok := sh.m.Delete(key)
	sh.mu.Unlock()
	return ok
}

// Len returns the total entry count across shards.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (s *Sharded[K, V]) Len() int {
	total := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		total += s.shards[i].m.Len()
		s.shards[i].mu.RUnlock()
	}
	return total
}

// Shards returns the shard count.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (s *Sharded[K, V]) Shards() int { return len(s.shards) }

// Range visits every entry (shard by shard, holding each shard's read lock
// during its sweep) until fn returns false. Entries written concurrently
// during iteration may or may not be visited.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (s *Sharded[K, V]) Range(fn func(K, V) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		stop := false
		sh.mu.RLock()
		sh.m.Range(func(k K, v V) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		sh.mu.RUnlock()
		if stop {
			return
		}
	}
}

// String summarizes the shard layout.
//
//lint:ignore reachlint library artifact (DESIGN.md §5): the adoptable native map, driven by its own tests and benchmarks
func (s *Sharded[K, V]) String() string {
	return fmt.Sprintf("cuckoomap.Sharded{%d shards, %d entries}", len(s.shards), s.Len())
}
