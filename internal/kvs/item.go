// Package kvs implements the in-memory key-value store of Section VI: a
// Memcached-like server with slab-allocated items, LRU metadata, and a
// pluggable hash-table index. Three index backends are provided, matching
// the paper's comparison:
//
//   - MemC3Index — the CPU-optimized non-SIMD baseline: a (2,4) bucketized
//     cuckoo hash table with 8-bit tags and 64-bit item pointers (MemC3).
//   - NewHorizontalIndex — (2,4) BCHT over 32-bit key hashes with the
//     horizontal AVX2 lookup ("Bucket-Cuckoo-Hor(AVX-256)").
//   - NewVerticalIndex — 3-way cuckoo HT over 32-bit key hashes with the
//     vertical AVX-512 batch lookup ("Cuckoo-Ver(AVX-512)").
//
// As in the paper, the SIMD indexes store a 32-bit payload that indexes a
// shared array of item references, and every index hit is verified against
// the client-supplied key string at the item (the non-SIMD key-matching
// step whose cost makes the horizontal and vertical designs perform alike
// end-to-end).
package kvs

import (
	"errors"
	"fmt"

	"simdhtbench/internal/cache"
	"simdhtbench/internal/mem"
)

// NoRef is the sentinel "not found" item reference.
const NoRef = ^uint32(0)

// itemHeaderBytes approximates the per-item metadata (LRU links, sizes,
// flags, CAS) that Memcached keeps in front of the key/value bytes; it is
// charged when an item is touched.
const itemHeaderBytes = 48

// Item is a stored key-value object's record: the simulated address and
// class of its slab chunk, its LRU links and where its key and value bytes
// sit in the store's byte blocks. It holds no pointer, so the store's item
// table is memory the garbage collector does not scan. Read its bytes with
// ItemStore.Key and ItemStore.Value.
type Item struct {
	addr    uint64 // simulated address of the item's slab chunk
	pos     uint32 // store position of the key's first byte; the value follows
	keyLen  uint16
	valLen  uint16
	lruPrev int32
	lruNext int32
	class   int8
	used    bool
}

// Addr returns the simulated memory address of the item, used by the
// pipeline to charge item-header and key-verification accesses.
func (it *Item) Addr() uint64 { return it.addr }

// ItemStore is the slab-backed object store. Items live in size-class slabs
// reserved in the simulated address space, so index verification and LRU
// updates can be charged through the cache model; only the chunk addresses
// are simulated. Item references (uint32) index a shared item table — the
// "shared array of object pointers" of Section VI-B.
//
// The key and value bytes live in append-only blocks of blockBytes that the
// store owns: Set copies an object's key and then its value to the end of
// the current block, starting a new block when the object does not fit.
// Written bytes are never rewritten, and a deleted item's bytes are never
// reused (as its simulated chunk is not), so every key or value slice the
// store handed out keeps its bytes. When a Delete leaves the store empty,
// the store drops every block but the one being filled; slices handed out
// earlier keep their blocks alive.
type ItemStore struct {
	space   *mem.AddressSpace
	classes []slabClass
	items   []Item
	free    []uint32

	blocks [][]byte // item bytes; the last block is the one being filled
	fill   int      // bytes written to the last block

	lruHead int32
	lruTail int32

	// MaxBytes caps the memory charged to items (chunk sizes); 0 means
	// unbounded. The server evicts from the LRU tail to respect it, which
	// is Memcached's capacity behaviour.
	MaxBytes  int
	usedBytes int
}

type slabClass struct {
	chunkSize int
	slab      uint64 // base address of the current slab; 0 before the first
	nextOff   int
}

// slabClassSizes are power-of-two chunk sizes from 64 B to 8 KB, covering
// the paper's 20 B keys + 32 B values up to multi-KB objects.
var slabClassSizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}

const slabBytes = 1 << 20 // each slab allocation is 1 MB, as in Memcached

// An item's position is a uint32 byte offset into the concatenated blocks:
// the block index in the high bits and the offset within the block in the
// low blockShift bits. A block holds the largest object (8192 B less the
// header), and the encoding caps the bytes written since the store was last
// empty at maxBlocks blocks (4 GiB); Set fails past that instead of
// wrapping.
const (
	blockShift = 16
	blockBytes = 1 << blockShift // 64 KiB
	maxBlocks  = 1 << (32 - blockShift)
)

// NewItemStore creates an empty store carving slabs from the given address
// space.
func NewItemStore(space *mem.AddressSpace) *ItemStore {
	classes := make([]slabClass, len(slabClassSizes))
	for i, sz := range slabClassSizes {
		classes[i] = slabClass{chunkSize: sz}
	}
	return &ItemStore{space: space, classes: classes, lruHead: -1, lruTail: -1}
}

// sizeClass returns the slab class of an object with the given key and
// value lengths, or an error when it exceeds the largest class.
func (s *ItemStore) sizeClass(keyLen, valLen int) (int, error) {
	need := itemHeaderBytes + keyLen + valLen
	for i, c := range s.classes {
		if c.chunkSize >= need {
			return i, nil
		}
	}
	return -1, fmt.Errorf("kvs: object of %d bytes exceeds the largest slab class", need)
}

// Set stores a copy of (key, value) and returns its reference. It fails,
// leaving the store as it was, when the object exceeds the largest slab
// class or its bytes would pass the position limit (see blockShift).
func (s *ItemStore) Set(key, value []byte) (uint32, error) {
	ci, err := s.sizeClass(len(key), len(value))
	if err != nil {
		return NoRef, err
	}
	size := len(key) + len(value)
	if len(s.blocks) == 0 || s.fill+size > blockBytes {
		if len(s.blocks) == maxBlocks {
			return NoRef, fmt.Errorf("kvs: item store holds %d blocks of %d bytes, the most an item position addresses", maxBlocks, blockBytes)
		}
		s.blocks = append(s.blocks, make([]byte, blockBytes))
		s.fill = 0
	}
	last := len(s.blocks) - 1
	copy(s.blocks[last][s.fill:], key)
	copy(s.blocks[last][s.fill+len(key):], value)
	pos := uint32(last)<<blockShift | uint32(s.fill)
	s.fill += size

	var ref uint32
	if n := len(s.free); n > 0 {
		ref = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.items = append(s.items, Item{})
		ref = uint32(len(s.items) - 1)
	}

	s.items[ref] = Item{
		addr:   s.classes[ci].alloc(s.space),
		pos:    pos,
		keyLen: uint16(len(key)),
		valLen: uint16(len(value)),
		class:  int8(ci),
		used:   true,
	}
	s.usedBytes += s.classes[ci].chunkSize
	s.lruPushFront(int32(ref))
	return ref, nil
}

// reserve grows the item table, when it lacks room, to a capacity of
// exactly n more items than it holds, so the next n Sets never copy it.
func (s *ItemStore) reserve(n int) {
	if cap(s.items)-len(s.items) >= n {
		return
	}
	items := make([]Item, len(s.items), len(s.items)+n)
	copy(items, s.items)
	s.items = items
}

// Key returns the key bytes of it, an item of this store. The slice aliases
// store memory: it must not be modified, and its capacity equals its
// length, so an append copies it.
func (s *ItemStore) Key(it *Item) []byte { return s.bytesAt(it.pos, int(it.keyLen)) }

// Value returns the value bytes of it, an item of this store, under the same
// terms as Key.
func (s *ItemStore) Value(it *Item) []byte {
	return s.bytesAt(it.pos+uint32(it.keyLen), int(it.valLen))
}

// bytesAt returns the n bytes at position pos. An empty key or value is nil
// (HandleMGet's results read a nil value as NOT_FOUND), so the position of
// an object with no bytes is never decoded.
func (s *ItemStore) bytesAt(pos uint32, n int) []byte {
	if n == 0 {
		return nil
	}
	off := int(pos & (blockBytes - 1))
	return s.blocks[pos>>blockShift][off : off+n : off+n]
}

// NeedsEviction reports whether storing an object of the given key/value
// size would exceed MaxBytes (when a cap is set). An object larger than
// the largest slab class never needs eviction: no eviction makes room for
// it, and Set rejects it.
func (s *ItemStore) NeedsEviction(keyLen, valLen int) bool {
	ci, err := s.sizeClass(keyLen, valLen)
	return err == nil && s.MaxBytes > 0 && s.usedBytes+s.classes[ci].chunkSize > s.MaxBytes
}

// LRUTail returns the least-recently-used item's reference, or NoRef when
// the store is empty — the eviction victim.
func (s *ItemStore) LRUTail() uint32 {
	if s.lruTail < 0 {
		return NoRef
	}
	return uint32(s.lruTail)
}

// alloc returns the address of the class's next chunk, reserving a new
// slab when the current one is full.
func (c *slabClass) alloc(space *mem.AddressSpace) uint64 {
	if c.slab == 0 || c.nextOff+c.chunkSize > slabBytes {
		c.slab = space.Reserve(slabBytes)
		c.nextOff = 0
	}
	addr := c.slab + uint64(c.nextOff)
	c.nextOff += c.chunkSize
	return addr
}

// Get returns the item for ref, or nil when the reference is invalid.
func (s *ItemStore) Get(ref uint32) *Item {
	if int(ref) >= len(s.items) || !s.items[ref].used {
		return nil
	}
	return &s.items[ref]
}

// Delete frees the item. The slab chunk is leaked back to its class only
// logically (Memcached's chunks likewise return to the class freelist; the
// simulated address remains reserved), and so are the item's bytes (see
// ItemStore for when their blocks are dropped).
func (s *ItemStore) Delete(ref uint32) error {
	it := s.Get(ref)
	if it == nil {
		return errors.New("kvs: delete of invalid reference")
	}
	s.lruUnlink(int32(ref))
	s.usedBytes -= s.classes[it.class].chunkSize
	*it = Item{lruPrev: -1, lruNext: -1}
	s.free = append(s.free, ref)
	if s.lruHead < 0 {
		s.releaseBlocks()
	}
	return nil
}

// releaseBlocks drops every byte block but the one being filled, which
// becomes block 0; the store must hold no live item, so no position refers
// to a dropped block. The kept block's unused tail lies outside every slice
// handed out, so later Sets may fill it.
func (s *ItemStore) releaseBlocks() {
	if len(s.blocks) <= 1 {
		return
	}
	last := s.blocks[len(s.blocks)-1]
	clear(s.blocks)
	s.blocks = append(s.blocks[:0], last)
}

// TouchLRU moves the item to the LRU front — the cache-freshness metadata
// update of the post-processing phase.
func (s *ItemStore) TouchLRU(ref uint32) {
	if s.Get(ref) == nil {
		return
	}
	s.lruUnlink(int32(ref))
	s.lruPushFront(int32(ref))
}

// WarmHot installs up to maxBytes of item chunks into a cache hierarchy,
// walking items in insertion order (the Multi-Get generators make low
// ordinals hottest, as memslap/mutilate key generation does).
func (s *ItemStore) WarmHot(h *cache.Hierarchy, maxBytes int) {
	warmed := 0
	for i := range s.items {
		it := &s.items[i]
		if !it.used {
			continue
		}
		sz := slabClassSizes[it.class]
		h.Touch(it.addr, sz)
		warmed += sz
		if warmed >= maxBytes {
			return
		}
	}
}

func (s *ItemStore) lruPushFront(r int32) {
	it := &s.items[r]
	it.lruPrev = -1
	it.lruNext = s.lruHead
	if s.lruHead >= 0 {
		s.items[s.lruHead].lruPrev = r
	}
	s.lruHead = r
	if s.lruTail < 0 {
		s.lruTail = r
	}
}

func (s *ItemStore) lruUnlink(r int32) {
	it := &s.items[r]
	if it.lruPrev >= 0 {
		s.items[it.lruPrev].lruNext = it.lruNext
	} else if s.lruHead == r {
		s.lruHead = it.lruNext
	}
	if it.lruNext >= 0 {
		s.items[it.lruNext].lruPrev = it.lruPrev
	} else if s.lruTail == r {
		s.lruTail = it.lruPrev
	}
	it.lruPrev, it.lruNext = -1, -1
}
