package cuckoo

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"simdhtbench/internal/hashfn"
	"simdhtbench/internal/mem"
)

// ErrFull is returned by Insert when no cuckoo eviction path to an empty
// slot can be found; the table has reached its maximum load factor.
var ErrFull = errors.New("cuckoo: table full (no eviction path found)")

// DefaultMaxBFSNodes bounds the breadth-first eviction-path search: the
// queue stops growing once it holds this many buckets, though the bucket
// being expanded may still append one per remaining slot (so the queue can
// exceed the bound by M−1). 2048 queued buckets is far beyond the depth
// needed at practical load factors; hitting the bound means the table is
// effectively full.
const DefaultMaxBFSNodes = 2048

// Table is an (N,m) cuckoo hash table in simulated memory.
//
// Insertion uses breadth-first search over the eviction graph (the approach
// of MemC3/libcuckoo) to find a shortest path of relocations to an empty
// slot, which is what lets BCHT variants reach the >90% load factors of
// Fig. 2. Lookups come in a native flavour (Lookup) and engine-charged
// flavours in scalar.go / horizontal.go / vertical.go.
//
// A Table is not safe for concurrent mutation; the paper's workloads are
// read-only after the load phase, and concurrent readers are safe.
type Table struct {
	L     Layout
	Arena *mem.Arena

	fam         *hashfn.Family
	count       int
	maxBFSNodes int

	// shadowKeys mirrors every slot's stored key (post-truncation, exactly
	// the value Arena.ReadUint would decode), indexed b*M+s. setSlot — the
	// sole writer of table bytes — keeps it coherent, which turns the
	// functional key reads that dominate fill and BFS (keyAt) into a single
	// slice index instead of a width-dispatched arena decode. The arena
	// remains authoritative: every charged load still reads table bytes.
	shadowKeys []uint64

	// Precomputed layout strides (resolved once in New), so keyOff and
	// valOff, the one slot-offset rule every template, the fill and the
	// charged insert use, are two multiply-adds with no branch on Split.
	bucketBytes int
	keyStride   int
	valBase     int
	valStride   int

	// BFS scratch reused across inserts: visited holds the buckets the
	// current search has enqueued, and bfsQueue keeps its capacity between
	// searches.
	visited  visitSet
	bfsQueue []pathEntry

	// scratch holds the per-table reusable buffers of the charged lookup
	// templates (see lookupScratch); charged lookups on one Table must not
	// run concurrently, which the engine's single-core model already
	// requires.
	scratch lookupScratch

	// bundles caches precomputed engine cost bundles per (model, width)
	// pair for the lookup templates' fixed charge sequences.
	bundles []*templateBundles

	// Instrumentation for charged inserts: the relocations and the
	// modelled BFS expansion count (see bfsMakeRoom) of the most recent
	// Insert.
	lastMoves    []move
	lastBFSNodes int

	// touchSink accumulates the values FillRandom's batch loads read; it is
	// never used otherwise.
	touchSink uint64
}

// move records one relocation performed by the eviction machinery.
type move struct {
	fromBucket, fromSlot int
	toBucket, toSlot     int
}

// New allocates a table with the given layout in the address space, with
// deterministic hash functions derived from seed.
func New(space *mem.AddressSpace, l Layout, seed int64) (*Table, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	// The arena carries one line of tail padding so vector-granularity
	// reads of the final slots (e.g. a 32-bit gather of a 16-bit payload)
	// stay in bounds — the same over-read padding real SIMD code allocates.
	t := &Table{
		L:           l,
		Arena:       space.Alloc(l.TableBytes() + mem.LineSize),
		fam:         hashfn.NewFamily(l.N, l.KeyBits, l.BucketBits, seed),
		maxBFSNodes: DefaultMaxBFSNodes,
		shadowKeys:  make([]uint64, l.Slots()),
		bucketBytes: l.BucketBytes(),
	}
	if l.Split {
		t.keyStride = l.KeyBits / 8
		t.valBase = l.M * l.KeyBits / 8
		t.valStride = l.ValBits / 8
	} else {
		t.keyStride = l.SlotBytes()
		t.valBase = l.KeyBits / 8
		t.valStride = l.SlotBytes()
	}
	return t, nil
}

// Count returns the number of stored items.
func (t *Table) Count() int { return t.count }

// LoadFactor returns count/slots.
func (t *Table) LoadFactor() float64 {
	return float64(t.count) / float64(t.L.Slots())
}

// Bucket returns hash function i applied to key.
func (t *Table) Bucket(i int, key uint64) int {
	return int(t.fam.Hash(i, key))
}

// keyOff returns the arena offset of the key of slot s in bucket b.
func (t *Table) keyOff(b, s int) int { return b*t.bucketBytes + s*t.keyStride }

// valOff returns the arena offset of the payload of slot s in bucket b.
func (t *Table) valOff(b, s int) int { return b*t.bucketBytes + t.valBase + s*t.valStride }

func (t *Table) keyAt(b, s int) uint64 {
	return t.shadowKeys[b*t.L.M+s]
}

func (t *Table) valAt(b, s int) uint64 {
	return t.Arena.ReadUint(t.valOff(b, s), t.L.ValBits)
}

func (t *Table) setSlot(b, s int, key, val uint64) {
	t.Arena.WriteUint(t.keyOff(b, s), t.L.KeyBits, key)
	t.Arena.WriteUint(t.valOff(b, s), t.L.ValBits, val)
	// Mirror exactly what a ReadUint of the slot would return: WriteUint
	// stores the low KeyBits, so the shadow records the truncated value.
	t.shadowKeys[b*t.L.M+s] = key & t.L.KeyMask()
}

// Lookup finds key and returns its payload. This is the native, uncharged
// path used for functional correctness.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	for i := 0; i < t.L.N; i++ {
		b := t.Bucket(i, key)
		for s := 0; s < t.L.M; s++ {
			if t.keyAt(b, s) == key {
				return t.valAt(b, s), true
			}
		}
	}
	return 0, false
}

// Insert stores (key, val). Inserting an existing key updates its payload.
// Returns ErrFull when no eviction path exists.
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (t *Table) Insert(key, val uint64) error {
	t.lastMoves = t.lastMoves[:0]
	t.lastBFSNodes = 0
	if key == 0 {
		return errors.New("cuckoo: key 0 is the empty-slot sentinel")
	}
	if key&^t.L.KeyMask() != 0 {
		return fmt.Errorf("cuckoo: key %#x exceeds %d bits", key, t.L.KeyBits)
	}
	if val&^t.L.ValMask() != 0 {
		return fmt.Errorf("cuckoo: payload %#x exceeds %d bits", val, t.L.ValBits)
	}

	// Update in place, or take the first empty slot in a candidate bucket.
	shadow, m := t.shadowKeys, t.L.M
	emptyB, emptyS := -1, -1
	for i := 0; i < t.L.N; i++ {
		b := t.Bucket(i, key)
		base := b * m
		for s := 0; s < m; s++ {
			switch shadow[base+s] {
			case key:
				t.setSlot(b, s, key, val)
				return nil
			case 0:
				if emptyB < 0 {
					emptyB, emptyS = b, s
				}
			}
		}
	}
	if emptyB >= 0 {
		t.setSlot(emptyB, emptyS, key, val)
		t.count++
		return nil
	}

	b, s, ok := t.bfsMakeRoom(key)
	if !ok {
		return ErrFull
	}
	t.setSlot(b, s, key, val)
	t.count++
	return nil
}

// Delete removes key, returning whether it was present.
func (t *Table) Delete(key uint64) bool {
	for i := 0; i < t.L.N; i++ {
		b := t.Bucket(i, key)
		for s := 0; s < t.L.M; s++ {
			if t.keyAt(b, s) == key {
				t.setSlot(b, s, 0, 0)
				t.count--
				return true
			}
		}
	}
	return false
}

// pathEntry is a node in the BFS over the eviction graph: reaching `bucket`
// required evicting the key in slot `parentSlot` of the parent entry.
type pathEntry struct {
	bucket     int
	parent     int // index into the BFS queue; -1 for roots
	parentSlot int
}

// bfsMakeRoom finds a shortest eviction path from one of key's candidate
// buckets to a bucket with an empty slot, performs the relocations, and
// returns the freed (bucket, slot).
//
// The search expands queue entries in order, appending each unvisited
// alternate bucket of every key in the expanded bucket, and stops growing
// the queue at maxBFSNodes (the bucket being expanded still appends one
// entry per remaining slot). Each bucket is tested for an empty slot when it
// is appended. The roots need no test: Insert calls this only after its
// candidate scan found them full. So the first appended bucket with an empty
// slot is the first queue entry with one, and its path is the path a search
// testing buckets when it dequeues them would take.
//
// lastBFSNodes is the modelled search's cost, which InsertCharged bills: the
// number of entries such a dequeue-time search expands, that is, p+1 for an
// answer at queue position p unless the queue reaches the cap first. When
// node k appends the answer p, the queue holds p+1 entries, and expanding
// k's remaining slots and nodes k+1..p−1 appends at most (p−k)·M·(N−1)−1
// more. So if p+1+(p−k)·M·(N−1) < cap, the queue is still below the cap
// when p is dequeued and the count is p+1. Otherwise the search keeps
// expanding, without testing, until it dequeues p or the cap stops it.
func (t *Table) bfsMakeRoom(key uint64) (int, int, bool) {
	t.visited.reset(max(2*t.maxBFSNodes, t.maxBFSNodes+t.L.M, t.L.N+1))
	queue := t.bfsQueue[:0]
	//lint:ignore alloclint the deferred reset closure captures only queue; Go stack-allocates it (the Insert AllocsPerRun pin proves it)
	defer func() { t.bfsQueue = queue[:0] }()
	shadow, m, n, maxNodes := t.shadowKeys, t.L.M, t.L.N, t.maxBFSNodes
	for i := 0; i < n; i++ {
		if b := t.Bucket(i, key); t.visited.add(b) {
			//lint:ignore alloclint BFS queue reuses t.bfsQueue's backing array; it grows only to the bounded high-water mark
			queue = append(queue, pathEntry{bucket: b, parent: -1})
		}
	}

	leaf, leafSlot := -1, 0
	for idx := 0; idx < len(queue) && len(queue) < maxNodes; idx++ {
		t.lastBFSNodes++
		if idx == leaf {
			break
		}
		e := queue[idx]
		base := e.bucket * m
		for s := 0; s < m; s++ {
			k := shadow[base+s]
			for j := 0; j < n; j++ {
				alt := t.Bucket(j, k)
				if alt == e.bucket || !t.visited.add(alt) {
					continue
				}
				//lint:ignore alloclint BFS queue reuses t.bfsQueue's backing array; it grows only to the bounded high-water mark
				queue = append(queue, pathEntry{bucket: alt, parent: idx, parentSlot: s})
				if leaf < 0 {
					if free := slices.Index(shadow[alt*m:alt*m+m], 0); free >= 0 {
						leaf, leafSlot = len(queue)-1, free
						if leaf+1+(leaf-idx)*m*(n-1) < maxNodes {
							t.lastBFSNodes = leaf + 1
							return t.applyPath(queue, leaf, leafSlot)
						}
					}
				}
				if len(queue) >= maxNodes {
					break
				}
			}
		}
	}
	if leaf < 0 {
		return 0, 0, false
	}
	return t.applyPath(queue, leaf, leafSlot)
}

// visitSet is the BFS's set of enqueued buckets: an open-addressing hash
// set with linear probing whose slots carry the epoch of the search that
// filled them, so a new search empties it by advancing the epoch. A search
// enqueues its N roots, or at most maxBFSNodes+M−1 buckets if that is more;
// the set keeps more slots than that, and at least twice the cap so probes
// stay short: 4,096 slots (32 KB) at the default cap, where a per-bucket
// stamp array costs 4 B for every bucket of the table. Bucket indices fit
// in 32 bits: 2^32 buckets would need a 16 GB arena and a 32 GB shadow.
type visitSet struct {
	slots []visitSlot
	epoch uint32
	shift uint // 32 − log2(len(slots))
}

type visitSlot struct {
	bucket uint32
	epoch  uint32
}

// reset empties the set, first growing it to at least n slots (a power of
// two) if it is smaller.
func (v *visitSet) reset(n int) {
	if len(v.slots) < n {
		lg := bits.Len(uint(n - 1))
		//lint:ignore alloclint sized on a table's first search; later searches reuse it
		v.slots = make([]visitSlot, 1<<lg)
		v.shift = uint(32 - lg)
	}
	// On the (astronomically rare) wraparound the slots are cleared once
	// so stale stamps from 2^32 searches ago cannot alias the new epoch.
	v.epoch++
	if v.epoch == 0 {
		clear(v.slots)
		v.epoch = 1
	}
}

// add inserts bucket b and reports whether it was absent.
func (v *visitSet) add(b int) bool {
	key := uint32(b)
	mask := uint32(len(v.slots) - 1)
	for i := (key * 0x9e3779b9) >> v.shift; ; i = (i + 1) & mask {
		s := &v.slots[i]
		if s.epoch != v.epoch {
			*s = visitSlot{bucket: key, epoch: v.epoch}
			return true
		}
		if s.bucket == key {
			return false
		}
	}
}

// applyPath relocates keys backwards along the BFS path ending at
// queue[leaf] (whose bucket has empty slot `free`), and returns the
// freed slot in the path's root bucket.
func (t *Table) applyPath(queue []pathEntry, leaf, free int) (int, int, bool) {
	e := queue[leaf]
	freeB, freeS := e.bucket, free
	for e.parent >= 0 {
		p := queue[e.parent]
		k := t.keyAt(p.bucket, e.parentSlot)
		v := t.valAt(p.bucket, e.parentSlot)
		// The key moving into freeB must indeed hash there.
		if !t.hashesTo(k, freeB) {
			panic(fmt.Sprintf("cuckoo: BFS path corrupt: key %#x does not hash to bucket %d", k, freeB))
		}
		t.setSlot(freeB, freeS, k, v)
		//lint:ignore alloclint lastMoves is reset to [:0] per Insert and reuses its backing array up to the bounded path length
		t.lastMoves = append(t.lastMoves, move{fromBucket: p.bucket, fromSlot: e.parentSlot, toBucket: freeB, toSlot: freeS})
		freeB, freeS = p.bucket, e.parentSlot
		e = p
	}
	t.setSlot(freeB, freeS, 0, 0)
	return freeB, freeS, true
}

func (t *Table) hashesTo(key uint64, bucket int) bool {
	for i := 0; i < t.L.N; i++ {
		if t.Bucket(i, key) == bucket {
			return true
		}
	}
	return false
}

// fillBatch is how many keys FillRandom draws and touches ahead of
// inserting them; as with the AMAC lookup baseline's groups, 8–16 keys in
// flight keep a core's miss buffers busy.
const fillBatch = 16

// FillRandom inserts random distinct keys until the table holds
// floor(lf*slots) items or an insert fails; it returns the inserted keys and
// the achieved load factor. Payload of key k is mixed from k so tests can
// verify lookups. The Fig. 2 experiment calls it with lf=1 to probe the
// layout's maximum achievable load factor.
//
// Keys are drawn from rng in batches of min(16, items still missing), and
// each batch's candidate buckets are loaded before its keys are inserted in
// draw order, so the batch's cache misses overlap. Every draw is one a
// key-at-a-time fill would also make, so a fill that reaches its target
// leaves rng exactly where that fill would. A fill that stops early, because
// an insert failed or the key space ran out, may have drawn up to 15 keys it
// never inserted; a caller that keeps drawing from rng after such a fill
// sees different keys than it would after a key-at-a-time fill.
//
// The returned list has room for every slot, so a caller that tops the
// table up with further inserts (a charged fill from lf to a higher load)
// appends to it in place. Growing it by copying would hold two lists for a
// moment, and on a table of millions of slots whether the garbage collector
// ran before or after that copy decided the process's peak heap: simbench's
// update-dram peak RSS flipped between about 128 and 165 MB from run to run.
func (t *Table) FillRandom(lf float64, rng *rand.Rand) ([]uint64, float64) {
	target := int(lf * float64(t.L.Slots()))
	keys := make([]uint64, 0, max(target, t.L.Slots()))
	var batch [fillBatch]uint64
	for t.count < target {
		drawn := batch[:min(fillBatch, target-t.count)]
		for i := range drawn {
			drawn[i] = (rng.Uint64() & t.L.KeyMask()) &^ 1 // even keys; odd = guaranteed misses
			t.touchCandidates(drawn[i])
		}
		for _, key := range drawn {
			if key == 0 {
				continue
			}
			// Duplicate draws are detected by the table itself instead of
			// a side map (which dominated large fills): inserting a present
			// key takes Insert's update-in-place path — it rewrites the
			// identical slot bytes (PayloadFor is deterministic) and leaves
			// count unchanged — so table state, RNG stream, and the
			// returned key list are all exactly what the map-based
			// formulation produced.
			before := t.count
			if err := t.Insert(key, PayloadFor(key, t.L.ValBits)); err != nil {
				return keys, t.LoadFactor()
			}
			if t.count == before {
				// Exhausted keyspace check: tiny 16-bit tables can run out.
				if len(keys) >= int(t.L.KeyMask()/2) {
					return keys, t.LoadFactor()
				}
				continue
			}
			keys = append(keys, key)
		}
	}
	return keys, t.LoadFactor()
}

// touchCandidates loads the first shadow key and the first arena byte of
// each of key's candidate buckets, so their cache misses are in flight
// before Insert reads them. The loads feed touchSink, which keeps the
// compiler from dropping them.
func (t *Table) touchCandidates(key uint64) {
	for i := 0; i < t.L.N; i++ {
		b := t.Bucket(i, key)
		t.touchSink += t.shadowKeys[b*t.L.M] + uint64(t.Arena.Bytes(t.keyOff(b, 0), 1)[0])
	}
}

// PayloadFor derives the deterministic payload stored for key in tests and
// fills, truncated to valBits.
func PayloadFor(key uint64, valBits int) uint64 {
	v := key*0x9e3779b97f4a7c15 + 1
	if valBits == 64 {
		return v
	}
	v &= (1 << valBits) - 1
	if v == 0 {
		v = 1
	}
	return v
}
