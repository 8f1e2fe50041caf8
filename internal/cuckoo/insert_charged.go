package cuckoo

import (
	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
)

// InsertCharged performs Insert while charging the work to the engine: hash
// evaluations, candidate-slot scans, the BFS eviction search's bucket
// reads, and the actual relocation loads/stores performed. It powers the
// mixed read/update workloads that the paper lists as future work ("model
// mixed workloads that involve concurrent reads and updates to the
// SIMD-aware hash table").
//
// Cuckoo insertion is inherently scalar — the eviction path is a dependent
// pointer chase — so updates run on the scalar datapath regardless of which
// SIMD lookup variant the table uses. Read-mostly workloads are therefore
// the sweet spot for SIMD-aware designs (Section IV's read-only focus), and
// the mixed-workload study quantifies how update traffic erodes the SIMD
// advantage.
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (t *Table) InsertCharged(e *engine.Engine, key, val uint64) error {
	// The whole insert — candidate scan, BFS, relocations — is fill-phase
	// work. The deferred restore's argument is pre-evaluated, so the defer
	// itself stays allocation-free.
	prevPhase := e.SetPhase(engine.PhaseFill)
	defer e.SetPhase(prevPhase)
	// Candidate-bucket scan: hash + per-slot load/compare, as in lookup.
	for i := 0; i < t.L.N; i++ {
		e.ScalarHash()
		b := t.Bucket(i, key)
		for s := 0; s < t.L.M; s++ {
			e.Charge(arch.OpScalarLoadOp, arch.WidthScalar)
			e.MemAccess(t.Arena.Addr(t.keyOff(b, s)), t.L.KeyBits/8)
			e.ScalarCompare()
			k := t.keyAt(b, s)
			if k == key || k == 0 {
				// Update in place or claim the empty slot: one store.
				e.Charge(arch.OpBranchMispredict, arch.WidthScalar)
				e.Charge(arch.OpScalarStoreOp, arch.WidthScalar)
				e.MemAccess(t.Arena.Addr(t.keyOff(b, s)), t.L.SlotBytes())
				//lint:ignore chargelint functional mutation; the store was charged by the MemAccess on the line above
				return t.Insert(key, val)
			}
		}
	}

	// All candidate slots occupied: run the functional insert (which
	// records the modelled BFS expansion count and the relocation path)
	// and charge exactly that work — including on failure. A full table is
	// only discovered by exhausting the bounded BFS frontier, so the
	// attempted kicks are real work the caller paid for before ErrFull
	// came back.
	//lint:ignore chargelint functional mutation; the equivalent BFS and relocation work is charged explicitly below
	err := t.Insert(key, val)
	// BFS frontier: every expanded node scanned one bucket's slots.
	for n := 0; n < t.lastBFSNodes; n++ {
		e.Charge(arch.OpScalarLoadOp, arch.WidthScalar)
		e.MemAccess(t.Arena.Addr(0), 1) // queue bookkeeping; negligible span
		e.ChargeCycles(float64(t.L.M) * arch.SlotEmptyCheckCycles)
	}
	// Relocations: read the victim, write it to its alternate bucket.
	// (On ErrFull no relocation happened — the path was never applied —
	// so this loop charges nothing.)
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
	// Final store of the new key into the freed root slot.
	e.Charge(arch.OpScalarStoreOp, arch.WidthScalar)
	return nil
}

// LastEvictionStats reports the most recent Insert's eviction work (zero
// for an insert that needed none): the modelled BFS expansion count, which
// is the number of buckets a search testing each bucket when it dequeues it
// expands (see bfsMakeRoom), and the items relocated. InsertCharged bills
// the same two numbers.
func (t *Table) LastEvictionStats() (bfsNodes, relocations int) {
	return t.lastBFSNodes, len(t.lastMoves)
}
