package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"simdhtbench/internal/cache"
	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/hashfn"
	"simdhtbench/internal/mem"
)

// memcmpCyclesPerByte approximates a tuned memcmp's per-byte cost; the key
// verification step also charges the item's header+key cache lines.
const memcmpCyclesPerByte = 0.25

// Index is a pluggable hash-table backend for the KVS server. An index maps
// a 32-bit key hash to an item reference. LookupBatch resolves a Multi-Get
// batch, charging all work (probing and full-key verification) to the
// worker's engine. Find resolves one key functionally, for the server's side
// paths (Get, and Set's lookup of a stored version): it runs no engine and
// touches no simulated cache.
type Index interface {
	// Name identifies the backend in reports, e.g. "MemC3".
	Name() string
	// Insert maps hash32 → ref for an item the server has just stored
	// (uncharged; the paper's workloads are loaded before measurement). The
	// server removes a stored version of the key first, so a SIMD index,
	// which keeps one key per 32-bit hash, fails an Insert of a hash it
	// holds (another key has that hash), found by the same scan that picks
	// the slot. MemC3, whose lookups verify full keys, adds the entry.
	Insert(hash32 uint32, ref uint32) error
	// LookupBatch resolves each key: refs[i] = item ref or NoRef. Keys and
	// their 32-bit hashes arrive pre-parsed (the pre-processing phase).
	// Returns the number of hits.
	LookupBatch(e *engine.Engine, store *ItemStore, keys [][]byte, hashes []uint32, refs []uint32) int
	// Find returns the reference of the item whose key equals key, or
	// NoRef. It probes the same entries LookupBatch would, in the same
	// order, and checks the full key at the item, so it returns the ref a
	// one-key LookupBatch returns; but it is uncharged and leaves every
	// cache hierarchy alone.
	Find(store *ItemStore, hash32 uint32, key []byte) uint32
	// Width returns the widest vector width the lookups use (for frequency
	// licensing); scalar backends return 64.
	Width() int
	// Warm installs the index's memory in a worker's cache hierarchy, the
	// steady state of a long-running server. It only touches h, so a
	// hierarchy warmed once can be copied into identical ones.
	Warm(h *cache.Hierarchy)
	// Delete removes the mapping for (hash32, key), verifying against the
	// item's stored key where the index is lossy. Reports whether an entry
	// was removed (used by LRU capacity eviction).
	Delete(store *ItemStore, hash32 uint32, key []byte) bool
}

// verifyKey charges and performs the full-key verification at the item: the
// item header+key lines are touched and a memcmp of the key bytes runs.
// This is the "non-SIMD key matching step" of Section VI-B.
func verifyKey(e *engine.Engine, store *ItemStore, ref uint32, key []byte) bool {
	it := store.Get(ref)
	if it == nil {
		return false
	}
	e.OverlappedAccess(it.addr, itemHeaderBytes+len(key))
	e.ChargeCycles(memcmpCyclesPerByte * float64(len(key)))
	return bytes.Equal(store.Key(it), key)
}

// simdIndex is either SIMD-aware backend: a cuckoo table over 32-bit key
// hashes whose 32-bit payload indexes the item table, probed with the
// horizontal or the vertical batch lookup, plus scratch stream/result
// buffers reused across batches.
type simdIndex struct {
	name string
	// horizontal is the batch template when its Width is set, vertical
	// otherwise; exactly one of the two is set.
	horizontal cuckoo.HorizontalConfig
	vertical   cuckoo.VerticalConfig

	table   *cuckoo.Table
	scratch *cuckoo.Stream
	results *cuckoo.ResultBuf
	found   []bool
}

// NewHorizontalIndex returns the "Bucket-Cuckoo-Hor(AVX-256)" backend: a
// (2,4) BCHT with 32-bit key hashes and 32-bit payloads, probed with the
// horizontal AVX2 lookup of Algorithm 1. It is sized for at least
// `capacity` items at up to 90% load factor (see sizeLayout).
func NewHorizontalIndex(space *mem.AddressSpace, capacity, maxBatch int, seed int64) (Index, error) {
	return newSIMDIndex(space, sizeLayout(2, 4, capacity), maxBatch, seed, simdIndex{
		name:       "Bucket-Cuckoo-Hor(AVX-256)",
		horizontal: cuckoo.HorizontalConfig{Width: 256, BucketsPerVec: 1},
	})
}

// NewVerticalIndex returns the "Cuckoo-Ver(AVX-512)" backend: a 3-way
// non-bucketized cuckoo HT with 32-bit key hashes and 32-bit payloads,
// probed with the vertical AVX-512 batch lookup of Algorithm 2. It is sized
// for at least `capacity` items at up to 90% load factor (see sizeLayout).
func NewVerticalIndex(space *mem.AddressSpace, capacity, maxBatch int, seed int64) (Index, error) {
	return newSIMDIndex(space, sizeLayout(3, 1, capacity), maxBatch, seed, simdIndex{
		name:     "Cuckoo-Ver(AVX-512)",
		vertical: cuckoo.VerticalConfig{Width: 512},
	})
}

// newSIMDIndex completes x, which names the backend and sets its batch
// template, with a table of the given layout and scratch for maxBatch keys.
func newSIMDIndex(space *mem.AddressSpace, layout cuckoo.Layout, maxBatch int, seed int64, x simdIndex) (Index, error) {
	t, err := cuckoo.New(space, layout, seed)
	if err != nil {
		return nil, err
	}
	x.table = t
	x.scratch = cuckoo.NewStream(space, make([]uint64, maxBatch), 32)
	x.results = cuckoo.NewResultBuf(space, maxBatch, 32)
	x.found = make([]bool, maxBatch)
	return &x, nil
}

// Name implements Index.
func (x *simdIndex) Name() string { return x.name }

// Width implements Index.
func (x *simdIndex) Width() int { return max(x.horizontal.Width, x.vertical.Width) }

// Warm implements Index.
func (x *simdIndex) Warm(h *cache.Hierarchy) {
	h.Touch(x.table.Arena.Base(), x.table.Arena.Size())
}

// tableKey is the cuckoo-table key of a 32-bit hash: 0 is the table's
// empty-slot sentinel, so hash 0 is remapped to 1 (the full-key check at
// the item disambiguates).
func tableKey(hash32 uint32) uint64 {
	if hash32 == 0 {
		return 1
	}
	return uint64(hash32)
}

// Delete implements Index. SIMD indexes store unique 32-bit hashes, so the
// key needs no verification.
func (x *simdIndex) Delete(_ *ItemStore, hash32 uint32, _ []byte) bool {
	return x.table.Delete(tableKey(hash32))
}

// Insert implements Index with one scan of the hash's candidate buckets
// (cuckoo.Table.InsertNew), which refuses a hash the table already holds.
func (x *simdIndex) Insert(hash32, ref uint32) error {
	err := x.table.InsertNew(tableKey(hash32), uint64(ref))
	if errors.Is(err, cuckoo.ErrExists) {
		return fmt.Errorf("kvs: 32-bit hash %#x is already held by another stored key; a SIMD index keeps one key per hash", hash32)
	}
	return err
}

// Find implements Index over the table's shadow keys: the uncharged
// cuckoo.Table.Lookup, then the full-key check at the item.
func (x *simdIndex) Find(store *ItemStore, hash32 uint32, key []byte) uint32 {
	v, ok := x.table.Lookup(tableKey(hash32))
	if !ok {
		return NoRef
	}
	ref := uint32(v)
	if it := store.Get(ref); it == nil || !bytes.Equal(store.Key(it), key) {
		return NoRef
	}
	return ref
}

// stage writes the batch's hashes into the scratch stream (the parsed
// output of pre-processing); the write itself is part of the pre-process
// phase, so it is uncharged here.
func (x *simdIndex) stage(hashes []uint32) {
	if len(hashes) > len(x.found) {
		panic(fmt.Sprintf("kvs: batch of %d exceeds index scratch %d", len(hashes), len(x.found)))
	}
	for i, h := range hashes {
		x.scratch.Arena.WriteUint(x.scratch.Off(i), 32, tableKey(h))
	}
}

func (x *simdIndex) collect(e *engine.Engine, store *ItemStore, keys [][]byte, refs []uint32) int {
	hits := 0
	for i := range keys {
		refs[i] = NoRef
		if !x.found[i] {
			continue
		}
		//lint:ignore chargelint result lane charged by the lookup kernel's vec_store_val stream access
		ref := uint32(x.results.Get(i))
		if verifyKey(e, store, ref, keys[i]) {
			refs[i] = ref
			hits++
		}
	}
	return hits
}

// LookupBatch implements Index with the batch template the backend set.
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (x *simdIndex) LookupBatch(e *engine.Engine, store *ItemStore, keys [][]byte, hashes []uint32, refs []uint32) int {
	//lint:ignore chargelint stage is the uncharged pre-process (parse) phase; lookup charging starts at the batch kernel
	x.stage(hashes)
	if x.horizontal.Width > 0 {
		x.table.LookupHorizontalBatch(e, x.scratch, 0, len(hashes), x.horizontal, x.results, x.found)
	} else {
		x.table.LookupVerticalBatch(e, x.scratch, 0, len(hashes), x.vertical, x.results, x.found)
	}
	return x.collect(e, store, keys, refs)
}

// sizeLayout picks the smallest power-of-two bucket count whose slot count
// holds `capacity` items with max(10% of the slots, 5·√slots) spare. Small
// tables need the √slots term: filled to 90%, 3-way tables of 16 to 2048
// slots failed to place every key on 0.7% (2048 slots) to 19% (128 slots)
// of 1000 seeds, and with this headroom no 3-way or (2,4) table up to 2048
// slots failed at the largest capacity of its layout over 2000 seeds. From
// 4096 slots on, the 10% term is the larger.
func sizeLayout(n, m, capacity int) cuckoo.Layout {
	l := cuckoo.Layout{N: n, M: m, KeyBits: 32, ValBits: 32, BucketBits: 4}
	for l.BucketBits < 31 {
		slots := float64(l.Slots())
		if float64(capacity) <= 0.9*slots && slots-float64(capacity) >= 5*math.Sqrt(slots) {
			break
		}
		l.BucketBits++
	}
	return l
}

// Hash32 derives the 32-bit HT key from a full key's bytes, as the server's
// pre-processing phase does.
func Hash32(key []byte) uint32 {
	return hashfn.Mix64to32(hashfn.HashBytes(key))
}
