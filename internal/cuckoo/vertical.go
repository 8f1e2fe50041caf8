package cuckoo

import (
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/vec"
)

// GatherMinWidth is the narrowest vector width with hardware gather support:
// gathers arrived with AVX2, so vertical vectorization needs >= 256-bit
// registers (Listing 1 shows vertical options only at 256/512 bits).
const GatherMinWidth = 256

// MaxGatherLanes caps lanes per gather at the hardware element width: both
// Skylake and Cascade Lake gather at most 64-bit elements (Observation ②).
const maxGatherLaneBits = 64

// VerVValid is the Vertical-over-CuckooHT validator (Algorithm 2, function
// VerV-Valid): it reports whether keys can be probed one-per-lane with
// vectors of `width` bits and, if so, how many keys each iteration handles.
// The vector must be wide enough to hold at least two (key,payload)-wide
// lanes worth of work and the width must support gathers.
func VerVValid(width int, l Layout) (ok bool, keysPerIter int) {
	if width < GatherMinWidth {
		return false, 0
	}
	if width <= l.KeyBits+l.ValBits {
		return false, 0
	}
	return true, width / l.KeyBits
}

// VerticalConfig parameterizes the vertical lookup.
type VerticalConfig struct {
	Width int
}

// LookupVerticalBatch runs Algorithm 2 (vertical SIMD vectorization) over
// queries [from, from+n): w = width/keyBits keys are processed per
// iteration, one per SIMD lane. Bucket indices are computed with a packed
// multiply-shift, keys are fetched with gathers, and matched lanes retire
// while the remaining lanes proceed to the next hash function (selective
// gathers). Results land in res; hit flags in found (may be nil). Returns
// the hit count.
//
// The implementation applies the paper's fewer-wider-gathers packing: when
// key+payload fit in one legal gather element (<= 64 bits), a single gather
// fetches both, eliminating the separate payload gather. Wider pairs — e.g.
// (K,V) = (64,64) — cannot be packed (Observation ②) and pay both extra
// gather instructions and more cache-line touches.
//
// With M > 1 the same template runs vertically over a BCHT by looping over
// the M slots with selective gathers — the hybrid of Case Study ⑤.
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (t *Table) LookupVerticalBatch(e *engine.Engine, s *Stream, from, n int, cfg VerticalConfig, res *ResultBuf, found []bool) int {
	okCfg, w := VerVValid(cfg.Width, Layout{N: t.L.N, M: 1, KeyBits: t.L.KeyBits, ValBits: t.L.ValBits, BucketBits: t.L.BucketBits})
	if !okCfg {
		panic(fmt.Sprintf("cuckoo: vertical lookup invalid for %s at %d bits", t.L, cfg.Width))
	}

	kb, vb := t.L.KeyBits, t.L.ValBits
	pairBits := kb + vb
	// Packing requires key and payload adjacent in memory (interleaved
	// layout) and the pair to fit a legal gather element.
	packed := (pairBits == 32 || pairBits == 64) && pairBits <= maxGatherLaneBits && !t.L.Split

	hits := 0
	keys := u64Scratch(&t.scratch.keys, w)
	vals := u64Scratch(&t.scratch.vals, w)
	offs := intScratch(&t.scratch.koffs, w)  // key offsets per lane
	voffs := intScratch(&t.scratch.voffs, w) // payload offsets per lane
	bdl := t.bundlesFor(e.Arch, cfg.Width)
	prevPhase := e.SetPhase(engine.PhaseProbe)

	for g := 0; g*w < n; g++ {
		lo := g * w
		size := w
		if lo+size > n {
			size = n - lo
		}
		// vec_load_lanes: one full-width load of the next w keys (a
		// sequential stream the prefetcher hides).
		e.Charge(arch.OpVecLoad, cfg.Width)
		e.StreamAccess(s.Arena.Addr(s.Off(from+lo)), size*kb/8)
		for i := 0; i < size; i++ {
			//lint:ignore chargelint key bytes charged by the StreamAccess above (one streaming load covers the whole group)
			keys[i] = s.Key(from + lo + i)
		}

		active := vec.LaneMaskAll(size)
		var foundMask vec.Mask

		for way := 0; way < t.L.N && !active.None(); way++ {
			// vec_calc_hash: packed multiply-shift, one key per lane.
			hashPhase := e.SetPhase(engine.PhaseHash)
			e.ChargeBatch(bdl.hashOne)
			e.SetPhase(hashPhase)
			for slot := 0; slot < t.L.M && !active.None(); slot++ {
				if slot > 0 {
					// Selective gather setup for the next slot (compress the
					// still-active lane offsets).
					e.Charge(arch.OpVecCompress, cfg.Width)
				}
				for i := 0; i < size; i++ {
					if active.Test(i) {
						b := t.Bucket(way, keys[i])
						offs[i] = t.keyOff(b, slot)
						voffs[i] = t.valOff(b, slot)
					}
				}
				var match vec.Mask
				if packed {
					match = t.gatherPairsAndCompare(e, cfg.Width, pairBits, size, offs, active, keys, vals)
				} else {
					match = t.gatherKeysAndCompare(e, cfg.Width, size, offs, active, keys)
					if !match.None() {
						t.gatherValues(e, cfg.Width, size, voffs, match, vals)
					}
				}
				e.ChargeBatch(bdl.probeTail)
				foundMask |= match
				active &^= match
			}
		}

		// vec_store_val: write the payload lanes back to the result buffer.
		storeChunks := (size*vb + cfg.Width - 1) / cfg.Width
		for c := 0; c < storeChunks; c++ {
			e.Charge(arch.OpVecStore, cfg.Width)
		}
		e.StreamAccess(res.Arena.Addr(res.Off(from+lo)), size*vb/8)
		for i := 0; i < size; i++ {
			ok := foundMask.Test(i)
			if found != nil {
				found[lo+i] = ok
			}
			if ok {
				hits++
				//lint:ignore chargelint result bytes charged by the StreamAccess above covering the group's payload span
				res.Arena.WriteUint(res.Off(from+lo+i), vb, vals[i])
			}
		}
	}
	e.SetPhase(prevPhase)
	return hits
}

// gatherPairsAndCompare implements the packed fast path: gather
// (key,payload) pairs as single pairBits-wide elements, then split with a
// shift+mask and compare keys. Returns the newly matched lanes; payloads of
// matched lanes are written into vals.
func (t *Table) gatherPairsAndCompare(e *engine.Engine, width, pairBits, size int, offs []int, active vec.Mask, keys, vals []uint64) vec.Mask {
	lanesPerGather := width / pairBits
	// Stale offsets from earlier chunks are harmless: the gather reads (and
	// charges) only lanes whose mask bit is set.
	goffs := intScratch(&t.scratch.goffs, lanesPerGather)
	pairs := u64Scratch(&t.scratch.glanes, lanesPerGather)
	var match vec.Mask
	for base := 0; base < size; base += lanesPerGather {
		chunk := lanesPerGather
		if base+chunk > size {
			chunk = size - base
		}
		chunkMask := subMask(active, base, chunk)
		for i := 0; i < chunk; i++ {
			if chunkMask.Test(i) {
				goffs[i] = offs[base+i]
			}
		}
		e.Gather(width, pairBits, t.Arena, goffs, chunkMask, pairs)
		// Split pair into key (low bits; keys are stored first) and payload.
		e.Charge(arch.OpVecAnd, width)
		e.Charge(arch.OpVecShift, width)
		kmask := t.L.KeyMask()
		e.Charge(arch.OpVecCmp, width)
		for i := 0; i < chunk; i++ {
			if !chunkMask.Test(i) {
				continue
			}
			pair := pairs[i]
			if pair&kmask == keys[base+i] {
				vals[base+i] = pair >> t.L.KeyBits
				match |= 1 << (base + i)
			}
		}
	}
	return match
}

// gatherKeysAndCompare implements the unpacked path for layouts whose
// key+payload exceeds the gather element width: gather keys alone (at the
// hardware's minimum 32-bit element granularity) and compare. Returns newly
// matched lanes.
func (t *Table) gatherKeysAndCompare(e *engine.Engine, width, size int, offs []int, active vec.Mask, keys []uint64) vec.Mask {
	gLane := t.L.KeyBits
	if gLane < 32 {
		gLane = 32 // gathers have no 16-bit element form
	}
	lanesPerGather := width / gLane
	goffs := intScratch(&t.scratch.goffs, lanesPerGather)
	gathered := u64Scratch(&t.scratch.glanes, lanesPerGather)
	var match vec.Mask
	for base := 0; base < size; base += lanesPerGather {
		chunk := lanesPerGather
		if base+chunk > size {
			chunk = size - base
		}
		chunkMask := subMask(active, base, chunk)
		if chunkMask.None() {
			continue
		}
		for i := 0; i < chunk; i++ {
			if chunkMask.Test(i) {
				goffs[i] = offs[base+i]
			}
		}
		e.Gather(width, gLane, t.Arena, goffs, chunkMask, gathered)
		if gLane != t.L.KeyBits {
			e.Charge(arch.OpVecAnd, width) // mask off payload bytes sharing the element
		}
		e.Charge(arch.OpVecCmp, width)
		kmask := t.L.KeyMask()
		for i := 0; i < chunk; i++ {
			if chunkMask.Test(i) && gathered[i]&kmask == keys[base+i] {
				match |= 1 << (base + i)
			}
		}
	}
	return match
}

// gatherValues fetches payloads for the newly matched lanes (the separate
// vec_gather_val of Algorithm 2, needed only on the unpacked path). voffs
// holds the payload offset per lane.
func (t *Table) gatherValues(e *engine.Engine, width, size int, voffs []int, match vec.Mask, vals []uint64) {
	vLane := t.L.ValBits
	if vLane < 32 {
		vLane = 32
	}
	lanesPerGather := width / vLane
	goffs := intScratch(&t.scratch.goffs, lanesPerGather)
	gathered := u64Scratch(&t.scratch.glanes, lanesPerGather)
	for base := 0; base < size; base += lanesPerGather {
		chunk := lanesPerGather
		if base+chunk > size {
			chunk = size - base
		}
		chunkMask := subMask(match, base, chunk)
		if chunkMask.None() {
			continue
		}
		for i := 0; i < chunk; i++ {
			if chunkMask.Test(i) {
				goffs[i] = voffs[base+i]
			}
		}
		e.Gather(width, vLane, t.Arena, goffs, chunkMask, gathered)
		vmask := t.L.ValMask()
		for i := 0; i < chunk; i++ {
			if chunkMask.Test(i) {
				vals[base+i] = gathered[i] & vmask
			}
		}
	}
}

// subMask extracts mask bits [base, base+n) shifted down to bit 0.
func subMask(m vec.Mask, base, n int) vec.Mask {
	return (m >> base) & vec.LaneMaskAll(n)
}
