package cuckoo

import (
	"errors"
	"fmt"
	"math/rand"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
)

// refTable is the reference the eviction search is checked against: the
// textbook breadth-first search, which tests buckets when it dequeues them.
// It keeps a stamp per table bucket as the visited set, tests each bucket
// for an empty slot when it dequeues it, and sweeps the whole queue for an
// empty slot once the cap stops the expansion. insert and insertCharged are
// Insert and InsertCharged running on this search, and fillRandom is
// FillRandom drawing one key at a time.
type refTable struct {
	*Table
	stamp []uint32
	epoch uint32
	found refFound
}

// refFound counts where the reference search found its empty slot, so a
// differential test can show it exercised every way the search ends.
type refFound struct {
	dequeued     int // by the dequeue-time test, with p+1+(p−k)·M·(N−1) < cap
	dequeuedDeep int // by the dequeue-time test, past that bound
	swept        int // by the sweep, at a queue position below the cap
	sweptPastCap int // by the sweep, among the entries appended past the cap
}

func newRefTable(t *Table) *refTable {
	return &refTable{Table: t, stamp: make([]uint32, t.L.Buckets())}
}

func (r *refTable) insert(key, val uint64) error {
	t := r.Table
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
	b, s, ok := r.makeRoom(key)
	if !ok {
		return ErrFull
	}
	t.setSlot(b, s, key, val)
	t.count++
	return nil
}

func (r *refTable) makeRoom(key uint64) (int, int, bool) {
	t := r.Table
	r.epoch++
	if r.epoch == 0 {
		clear(r.stamp)
		r.epoch = 1
	}
	var queue []pathEntry
	stamp, epoch := r.stamp, r.epoch
	shadow, m, n := t.shadowKeys, t.L.M, t.L.N
	for i := 0; i < n; i++ {
		b := t.Bucket(i, key)
		if stamp[b] == epoch {
			continue
		}
		stamp[b] = epoch
		queue = append(queue, pathEntry{bucket: b, parent: -1})
	}

	for idx := 0; idx < len(queue) && len(queue) < t.maxBFSNodes; idx++ {
		t.lastBFSNodes++
		e := queue[idx]
		base := e.bucket * m
		for s := 0; s < m; s++ {
			if shadow[base+s] == 0 {
				if idx+1+(idx-e.parent)*m*(n-1) < t.maxBFSNodes {
					r.found.dequeued++
				} else {
					r.found.dequeuedDeep++
				}
				return t.applyPath(queue, idx, s)
			}
		}
		for s := 0; s < m; s++ {
			k := shadow[base+s]
			for j := 0; j < n; j++ {
				alt := t.Bucket(j, k)
				if alt == e.bucket || stamp[alt] == epoch {
					continue
				}
				stamp[alt] = epoch
				queue = append(queue, pathEntry{bucket: alt, parent: idx, parentSlot: s})
				if len(queue) >= t.maxBFSNodes {
					break
				}
			}
		}
	}

	for idx, e := range queue {
		for s := 0; s < m; s++ {
			if t.keyAt(e.bucket, s) == 0 {
				if idx < t.maxBFSNodes {
					r.found.swept++
				} else {
					r.found.sweptPastCap++
				}
				return t.applyPath(queue, idx, s)
			}
		}
	}
	return 0, 0, false
}

func (r *refTable) insertCharged(e *engine.Engine, key, val uint64) error {
	t := r.Table
	prevPhase := e.SetPhase(engine.PhaseFill)
	defer e.SetPhase(prevPhase)
	for i := 0; i < t.L.N; i++ {
		e.ScalarHash()
		b := t.Bucket(i, key)
		for s := 0; s < t.L.M; s++ {
			e.Charge(arch.OpScalarLoadOp, arch.WidthScalar)
			e.MemAccess(t.Arena.Addr(t.keyOff(b, s)), t.L.KeyBits/8)
			e.ScalarCompare()
			k := t.keyAt(b, s)
			if k == key || k == 0 {
				e.Charge(arch.OpBranchMispredict, arch.WidthScalar)
				e.Charge(arch.OpScalarStoreOp, arch.WidthScalar)
				e.MemAccess(t.Arena.Addr(t.keyOff(b, s)), t.L.SlotBytes())
				return r.insert(key, val)
			}
		}
	}
	err := r.insert(key, val)
	for n := 0; n < t.lastBFSNodes; n++ {
		e.Charge(arch.OpScalarLoadOp, arch.WidthScalar)
		e.MemAccess(t.Arena.Addr(0), 1)
		e.ChargeCycles(float64(t.L.M) * arch.SlotEmptyCheckCycles)
	}
	for _, mv := range t.lastMoves {
		e.Charge(arch.OpScalarLoadOp, arch.WidthScalar)
		e.MemAccess(t.Arena.Addr(t.keyOff(mv.fromBucket, mv.fromSlot)), t.L.SlotBytes())
		e.ScalarHash()
		e.Charge(arch.OpScalarStoreOp, arch.WidthScalar)
		e.MemAccess(t.Arena.Addr(t.keyOff(mv.toBucket, mv.toSlot)), t.L.SlotBytes())
	}
	if err != nil {
		return err
	}
	e.Charge(arch.OpScalarStoreOp, arch.WidthScalar)
	return nil
}

func (r *refTable) fillRandom(lf float64, rng *rand.Rand) ([]uint64, float64) {
	t := r.Table
	target := int(lf * float64(t.L.Slots()))
	keys := make([]uint64, 0, target)
	for t.count < target {
		key := (rng.Uint64() & t.L.KeyMask()) &^ 1
		if key == 0 {
			continue
		}
		before := t.count
		if err := r.insert(key, PayloadFor(key, t.L.ValBits)); err != nil {
			break
		}
		if t.count == before {
			if len(keys) >= int(t.L.KeyMask()/2) {
				break
			}
			continue
		}
		keys = append(keys, key)
	}
	return keys, t.LoadFactor()
}
