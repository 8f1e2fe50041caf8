package cuckoo

import (
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/vec"
)

// AMACConfig parameterizes the group-prefetching scalar lookup.
type AMACConfig struct {
	// GroupSize is the number of in-flight lookups (state machines). 8–16
	// in-flight misses saturate a core's miss-handling resources; 0 picks
	// the default of 10 (an out-of-order core's L1 MSHR count).
	GroupSize int
}

const defaultAMACGroup = 10

// LookupAMACBatch is a scalar (non-SIMD) batched lookup restructured for
// memory-level parallelism in the style of group prefetching / AMAC
// (Chen et al., Kocberber et al.): G lookups proceed as interleaved state
// machines, and each probe's bucket line is software-prefetched one wave
// before it is scanned, so the miss latencies of a group overlap instead of
// serializing.
//
// This is the strongest non-SIMD baseline in the batched-lookup literature
// and an extension beyond the paper's scalar baseline: comparing it against
// the vertical template separates how much of the SIMD win is memory-level
// parallelism (which AMAC also gets) from how much is instruction reduction
// (which only SIMD gets). Results land in res; hit flags in found. Returns
// the hit count.
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (t *Table) LookupAMACBatch(e *engine.Engine, s *Stream, from, n int, cfg AMACConfig, res *ResultBuf, found []bool) int {
	g := cfg.GroupSize
	if g == 0 {
		g = defaultAMACGroup
	}
	if g < 2 || g > 32 {
		panic(fmt.Sprintf("cuckoo: AMAC group size %d outside [2,32]", g))
	}

	prevPhase := e.SetPhase(engine.PhaseProbe)
	hits := 0
	keys := u64Scratch(&t.scratch.keys, g)
	buckets := intScratch(&t.scratch.buckets, g)

	for base := 0; base < n; base += g {
		size := g
		if base+size > n {
			size = n - base
		}
		// Load and hash the group's keys (stream reads are prefetched).
		for i := 0; i < size; i++ {
			keys[i] = e.StreamLoad(s.Arena, s.Off(from+base+i), s.Bits)
		}

		active := vec.LaneMaskAll(size)
		for way := 0; way < t.L.N && !active.None(); way++ {
			// Wave 1: compute bucket addresses and issue prefetches for
			// every in-flight lookup. The overlapped access models the
			// prefetch wave — G independent line fetches in flight.
			for i := 0; i < size; i++ {
				if !active.Test(i) {
					continue
				}
				hashPhase := e.SetPhase(engine.PhaseHash)
				e.ScalarHash()
				buckets[i] = t.Bucket(way, keys[i])
				e.SetPhase(hashPhase)
				e.Charge(arch.OpScalarALU, arch.WidthScalar) // address formation
				e.Charge(arch.OpScalarALU, arch.WidthScalar) // prefetch issue + state update
				e.OverlappedAccess(t.Arena.Addr(t.keyOff(buckets[i], 0)), t.L.BucketBytes())
			}
			// Wave 2: scan the (now resident) buckets scalar, retiring
			// matches. The per-slot loads hit L1 thanks to the prefetch.
			for i := 0; i < size; i++ {
				if !active.Test(i) {
					continue
				}
				e.Charge(arch.OpScalarBranch, arch.WidthScalar) // state-machine dispatch
				for slot := 0; slot < t.L.M; slot++ {
					k := e.ScalarLoad(t.Arena, t.keyOff(buckets[i], slot), t.L.KeyBits)
					e.ScalarCompare()
					if k == keys[i] {
						e.Charge(arch.OpBranchMispredict, arch.WidthScalar)
						v := e.ScalarLoad(t.Arena, t.valOff(buckets[i], slot), t.L.ValBits)
						e.StreamStore(res.Arena, res.Off(from+base+i), t.L.ValBits, v)
						if found != nil {
							found[base+i] = true
						}
						hits++
						active &^= 1 << i
						break
					}
				}
			}
		}
		if found != nil {
			for i := 0; i < size; i++ {
				if active.Test(i) {
					found[base+i] = false
				}
			}
		}
	}
	e.SetPhase(prevPhase)
	return hits
}
