package cuckoo

import (
	"encoding/binary"
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/vec"
)

// HorVValid is the Horizontal-over-BCHT validator (Algorithm 1, function
// HorV-Valid): it reports whether a bucketized layout can be probed
// horizontally with vectors of `width` bits, and if so how many hash
// buckets fit into one vector.
//
// For the default interleaved layout the whole bucket (keys and payloads)
// must fit in the vector, exactly as the paper's validator requires. For a
// split layout only the bucket's contiguous key block must fit — the
// optimization networking designs use, which admits narrower vectors (a
// (2,8) bucket of 16-bit keys probes in 128 bits).
func HorVValid(width int, l Layout) (ok bool, bucketsPerVec int) {
	if l.M <= 1 {
		return false, 0
	}
	unit := (l.KeyBits + l.ValBits) * l.M
	if l.Split {
		unit = l.KeyBits * l.M
	}
	if width < unit {
		return false, 0
	}
	bpv := width / unit
	if bpv > l.N {
		bpv = l.N
	}
	return true, bpv
}

// HorizontalConfig parameterizes the horizontal lookup: the vector width and
// how many buckets are probed per vector (1 = optimistic one-bucket-at-a-
// time probing; N = pessimistic load-all-candidates probing, Case Study ③).
type HorizontalConfig struct {
	Width         int
	BucketsPerVec int
}

// LookupHorizontalBatch runs Algorithm 1 (horizontal SIMD vectorization)
// over queries [from, from+n) of the stream: for each key, the candidate
// bucket(s) are loaded whole into a vector, keys and payloads are separated
// with shuffles, and a single packed compare probes all slots at once.
// Results land in res; hit flags in found (may be nil). Returns hit count.
//
// Bucket-index computation is vectorized across keys (calc_N_hash_buckets
// in the paper): the packed multiply-shift is charged once per vector-full
// of upcoming keys, amortizing it the way the real implementation does.
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (t *Table) LookupHorizontalBatch(e *engine.Engine, s *Stream, from, n int, cfg HorizontalConfig, res *ResultBuf, found []bool) int {
	okCfg, maxBPV := HorVValid(cfg.Width, t.L)
	if !okCfg {
		panic(fmt.Sprintf("cuckoo: horizontal lookup invalid for %s at %d bits", t.L, cfg.Width))
	}
	bpv := cfg.BucketsPerVec
	if bpv < 1 || bpv > maxBPV {
		panic(fmt.Sprintf("cuckoo: buckets-per-vec %d out of range [1,%d]", bpv, maxBPV))
	}

	kb, vb := t.L.KeyBits, t.L.ValBits
	// In the split layout only the contiguous key block is loaded per
	// bucket; payloads are fetched with a scalar load after a match.
	loadBytes := t.L.BucketBytes()
	if t.L.Split {
		loadBytes = t.L.keyBlockBytes()
	}
	hashLanes := cfg.Width / kb // keys whose buckets are computed per packed hash
	groups := (t.L.N + bpv - 1) / bpv
	hits := 0
	bdl := t.bundlesFor(e.Arch, cfg.Width)
	prevPhase := e.SetPhase(engine.PhaseProbe)

	for q := 0; q < n; q++ {
		// Amortized vectorized bucket calculation for the next hashLanes
		// keys: N packed hashes, charged as one precomputed bundle.
		if q%hashLanes == 0 {
			hashPhase := e.SetPhase(engine.PhaseHash)
			e.ChargeBatch(bdl.hashAll)
			e.SetPhase(hashPhase)
		}
		key := e.StreamLoad(s.Arena, s.Off(from+q), s.Bits)
		kvec := e.Set1(cfg.Width, kb, key)

		matched := false
		for g := 0; g < groups && !matched; g++ {
			lo := g * bpv
			hi := lo + bpv
			if hi > t.L.N {
				hi = t.L.N
			}
			// Assemble bpv buckets in one register; a short final group pads
			// by re-loading its last bucket (harmless duplicate lanes).
			offs := intScratch(&t.scratch.offs, bpv)[:0]
			buckets := intScratch(&t.scratch.buckets, bpv)[:0]
			for j := lo; j < hi; j++ {
				b := t.Bucket(j, key)
				buckets = append(buckets, b) //lint:ignore alloclint appends stay within the bpv capacity intScratch reserved
				offs = append(offs, t.keyOff(b, 0))
			}
			for len(offs) < bpv {
				offs = append(offs, offs[len(offs)-1]) //lint:ignore alloclint pad appends stay within the bpv capacity intScratch reserved
				buckets = append(buckets, buckets[len(buckets)-1])
			}
			bvec := t.loadBuckets(e, cfg.Width, offs, loadBytes)

			if !t.L.Split {
				// vec_shuffle_and_blend: separate keys from payloads
				// (unnecessary when the key block is already contiguous).
				e.Shuffle(cfg.Width)
				e.Shuffle(cfg.Width)
			}
			tk := t.extractKeys(cfg.Width, bvec, bpv, loadBytes)

			match := e.CmpEq(kb, tk, kvec)
			match &= vec.LaneMaskAll(bpv * t.L.M)
			e.ChargeBatch(bdl.probeTail)
			if lane := match.FirstSet(); lane >= 0 {
				b := buckets[lane/t.L.M]
				slot := lane % t.L.M
				var v uint64
				if t.L.Split {
					// The payload block was not loaded: one scalar load.
					v = e.ScalarLoad(t.Arena, t.valOff(b, slot), vb)
				} else {
					// vec_reduce: extract the matching payload lane.
					e.Reduce(cfg.Width)
					//lint:ignore chargelint payload lane is already resident: loadBuckets charged the full key+payload bucket via MemAccess
					v = t.valAt(b, slot)
				}
				e.StreamStore(res.Arena, res.Off(from+q), vb, v)
				matched = true
			}
		}
		if found != nil {
			found[q] = matched
		}
		if matched {
			hits++
		}
	}
	e.SetPhase(prevPhase)
	return hits
}

// loadBuckets performs vec_load_buckets: it charges one vector load per
// bucket, an insert shuffle for each bucket after the first and the memory
// access of its bucketBytes, and returns the register holding the buckets
// side by side. Register bytes past the last bucket (when
// bucketsPerVec*bucketBytes < width/8) read zero, matching a masked load.
func (t *Table) loadBuckets(e *engine.Engine, width int, offs []int, bucketBytes int) vec.Vec {
	buf := t.scratch.regBuf[:width/8]
	clear(buf)
	for i, off := range offs {
		e.Charge(arch.OpVecLoad, width)
		if i > 0 {
			e.Charge(arch.OpVecShuffle, width)
		}
		e.MemAccess(t.Arena.Addr(off), bucketBytes)
		//lint:ignore chargelint data transfer of the access charged by the MemAccess on the line above
		copy(buf[i*bucketBytes:], t.Arena.Bytes(off, bucketBytes))
	}
	return vec.FromBytes(width, buf)
}

// extractKeys builds the packed key vector t_k from a register holding bpv
// loaded buckets (whole buckets when interleaved — the functional effect of
// the charged shuffles — or key blocks when split). unitBytes is the bytes
// loaded per bucket. Each key is one little-endian 64-bit load from the
// register's byte image, of which SetLane keeps the low KeyBits.
func (t *Table) extractKeys(width int, bvec vec.Vec, bpv, unitBytes int) vec.Vec {
	kb := t.L.KeyBits
	raw := t.scratch.regBuf[:]
	bvec.ToBytesInto(raw)
	tk := vec.Zero(width)
	lane := 0
	for c := 0; c < bpv; c++ {
		for s := 0; s < t.L.M; s++ {
			tk.SetLane(kb, lane, binary.LittleEndian.Uint64(raw[c*unitBytes+s*t.keyStride:]))
			lane++
		}
	}
	return tk
}
