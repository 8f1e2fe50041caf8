package cuckoo

import (
	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
)

// LookupScalarBatch runs the non-SIMD baseline over queries [from, from+n)
// of the stream, writing payloads to res (slot from+q) and hit flags to
// found (indexed from 0). found may be nil. It returns the number of hits.
//
// This is the "Scalar" series of every figure: the corresponding non-SIMD
// version of the vectorized lookup templates, with all vector instructions
// replaced by scalar load/compare ops (bucks-per-vec = 1, keys-per-iter =
// 1, per Section IV-B). It probes the N candidate buckets in order with
// early exit on match — the optimization a tuned scalar implementation
// uses, which is what keeps the scalar baseline strong under skewed access
// (Fig. 5's discussion).
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (t *Table) LookupScalarBatch(e *engine.Engine, s *Stream, from, n int, res *ResultBuf, found []bool) int {
	prevPhase := e.SetPhase(engine.PhaseProbe)
	hits := 0
	for q := 0; q < n; q++ {
		key := e.StreamLoad(s.Arena, s.Off(from+q), s.Bits)
		v, ok := t.lookupScalarOne(e, key)
		if found != nil {
			found[q] = ok
		}
		if ok {
			hits++
			e.StreamStore(res.Arena, res.Off(from+q), res.Bits, v)
		}
	}
	e.SetPhase(prevPhase)
	return hits
}

// lookupScalarOne probes one key, charging hash evaluation, per-slot loads,
// compares and branches.
func (t *Table) lookupScalarOne(e *engine.Engine, key uint64) (uint64, bool) {
	for i := 0; i < t.L.N; i++ {
		hashPhase := e.SetPhase(engine.PhaseHash)
		e.ScalarHash()
		b := t.Bucket(i, key)
		e.SetPhase(hashPhase)
		for s := 0; s < t.L.M; s++ {
			k := e.ScalarLoad(t.Arena, t.keyOff(b, s), t.L.KeyBits)
			e.ScalarCompare()
			if k == key {
				// The match position is data-dependent: the early-exit
				// branch mispredicts, flushing the pipeline. (A miss exits
				// after a fixed N*M trip count, which predicts perfectly.)
				e.Charge(arch.OpBranchMispredict, arch.WidthScalar)
				v := e.ScalarLoad(t.Arena, t.valOff(b, s), t.L.ValBits)
				return v, true
			}
		}
	}
	return 0, false
}
