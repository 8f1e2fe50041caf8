// Package engine provides the charged execution engine that all measured
// lookup algorithms run on.
//
// An Engine combines an architecture model (internal/arch), a simulated
// cache hierarchy (internal/cache) and the software SIMD register file
// (internal/vec). Algorithms written against the engine execute functionally
// — they really load table bytes, compare lanes and produce results — while
// every operation is charged cycles from the architecture's cost table and
// every memory access is charged through the cache simulator. Dividing the
// accumulated cycles by the licensed clock frequency yields the simulated
// wall time that all throughput figures in this repository report.
//
// The engine tracks the widest vector width used during a run, because
// Skylake-generation CPUs clock down under wide-vector ("heavy AVX-512")
// code; the time conversion applies the corresponding license frequency.
package engine

import (
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/cache"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
	"simdhtbench/internal/vec"
)

// Engine executes and charges simulated scalar and vector operations.
type Engine struct {
	Arch  *arch.Model
	Cache *cache.Hierarchy

	cycles   float64
	maxWidth int
	charging bool

	// Breakdown: cycles and op counts by op class, memory cycles
	// (cache/DRAM) and fixed cycles (ChargeCycles). opCycles and opCount
	// are indexed by the dense OpClass values; a nonzero opCount tells a
	// charged class with a zero total from one never charged.
	opCycles    [arch.NumOpClasses]float64
	opCount     [arch.NumOpClasses]uint64
	memCycles   float64
	fixedCycles float64

	// costs is the model's dense cost table (arch.CostTable), resolved once
	// at construction so the charge hot path is two array indexes.
	costs *arch.CostTable

	// fused enables the batched fast path of ChargeBatch. It is on by
	// default; differential tests turn it off to force the per-op path and
	// compare the two bit-for-bit.
	fused bool

	// probe, when non-nil, observes what the engine keeps no count of
	// (obs layer): each charged gather's distinct lines, and the cycle at
	// which each wider width is licensed, warm-up included. Charged costs
	// are the counts above, which the caller publishes itself.
	probe obs.EngineProbe

	// prof, when non-nil, attributes every charged cycle along the frame
	// stack phase → op class / mem:<level> / fixed (internal/obs/prof),
	// mirroring the engine's own cycle additions value-for-value in the
	// same order so prof.Total() == Cycles() exactly. The per-phase handle
	// caches resolve each tree leaf once; the steady-state cost of an
	// attributed charge is two array indexes and two float adds.
	prof         *prof.Profiler
	phase        Phase
	profPhase    [NumPhases]prof.Handle
	profOp       [NumPhases][arch.NumOpClasses]prof.Handle
	profFixed    [NumPhases]prof.Handle
	profMem      [NumPhases][]prof.Handle
	profLicense  prof.Handle
	memLeafNames []string

	// Reusable scratch for Gather and VecLoadParts, so the measured loop
	// performs zero heap allocations. An Engine models one core and is
	// documented single-goroutine; scratch reuse relies on that.
	gatherSeen [2 * 32]uint64
	partsBuf   [64]byte
}

// New builds an engine for the given architecture, running in
// full-subscription mode with `cores` active cores (which sets the
// memory-bandwidth contention penalty). cores <= 1 means an uncontended run.
func New(m *arch.Model, cores int) *Engine {
	cfgs := make([]cache.Config, len(m.Caches))
	for i, c := range m.Caches {
		cfgs[i] = cache.Config{Name: c.Name, Size: c.Size, Assoc: c.Assoc, Latency: c.Latency}
	}
	h := cache.New(m.DRAMLatency, cfgs...)
	h.DRAMPenalty = m.DRAMPenalty(cores)
	return &Engine{
		Arch: m, Cache: h, maxWidth: arch.WidthScalar, charging: true,
		costs: m.CostTable(), fused: true,
	}
}

// Cycles returns the cycles accumulated since the last reset.
func (e *Engine) Cycles() float64 { return e.cycles }

// Ops returns the number of charged operations since the last reset.
func (e *Engine) Ops() uint64 {
	var n uint64
	for _, c := range e.opCount {
		n += c
	}
	return n
}

// OpCount returns the number of ops of class c charged since the last reset.
func (e *Engine) OpCount(c arch.OpClass) uint64 { return e.opCount[c] }

// MaxWidth returns the widest vector width (bits) charged since construction.
func (e *Engine) MaxWidth() int { return e.maxWidth }

// ResetCycles clears the cycle and op counters but keeps cache contents, so
// a measured phase can follow a warm-up phase.
func (e *Engine) ResetCycles() {
	e.cycles = 0
	e.memCycles = 0
	e.fixedCycles = 0
	e.opCycles = [arch.NumOpClasses]float64{}
	e.opCount = [arch.NumOpClasses]uint64{}
	e.Cache.ResetStats()
}

// SetCharging toggles cost accounting. Algorithms still execute functionally
// while charging is off; warm-up passes use this.
func (e *Engine) SetCharging(on bool) { e.charging = on }

// SetFusedCharging toggles ChargeBatch's batched fast path (on by default).
// With fusing off every ChargeBatch call decays to the per-op Charge loop;
// differential tests use this to verify the two paths produce bit-identical
// cycle totals on the same workload.
//
//lint:ignore reachlint reference path a test compares against: the per-op charge loop the fused differential tests hold ChargeBatch to
func (e *Engine) SetFusedCharging(on bool) { e.fused = on }

// SetProbe installs an observability probe (nil turns observation off).
// The probe only observes — it never alters a charge — so attaching one
// cannot change any measured result.
func (e *Engine) SetProbe(p obs.EngineProbe) { e.probe = p }

// Charge adds the cost of one op of the given class and vector width.
func (e *Engine) Charge(c arch.OpClass, width int) {
	if width > e.maxWidth {
		e.maxWidth = width
		if e.probe != nil {
			e.probe.WidthLicensed(width, e.cycles)
		}
		if e.prof != nil {
			e.prof.AddEvents(e.profLicenseHandle(), 1)
		}
	}
	if !e.charging {
		return
	}
	cost, ok := e.costs.Lookup(c, width)
	if !ok {
		cost = e.Arch.Cost(c, width)
	}
	e.cycles += cost
	e.opCycles[c] += cost
	e.opCount[c]++
	if e.prof != nil {
		e.prof.AddSelf(e.profOpHandle(c), cost)
		e.prof.AddTotal(cost)
	}
}

// MemCycles returns the cycles spent in cache/DRAM accesses since reset.
func (e *Engine) MemCycles() float64 { return e.memCycles }

// FixedCycles returns the cycles ChargeCycles added since reset.
func (e *Engine) FixedCycles() float64 { return e.fixedCycles }

// ForEachOpCycle calls fn for every op class charged since reset, in
// ascending OpClass order. It performs no allocation, and fn receives values,
// so a caller cannot corrupt the engine's accounting.
func (e *Engine) ForEachOpCycle(fn func(c arch.OpClass, cycles float64)) {
	for c := 0; c < arch.NumOpClasses; c++ {
		if e.opCount[c] != 0 {
			fn(arch.OpClass(c), e.opCycles[c])
		}
	}
}

// ChargeCycles adds a raw cycle amount (used for modeled fixed costs such as
// key parsing in the KVS pipeline).
func (e *Engine) ChargeCycles(cy float64) {
	if !e.charging {
		return
	}
	e.cycles += cy
	e.fixedCycles += cy
	if e.prof != nil {
		e.prof.AddSelf(e.profFixedHandle(), cy)
		e.prof.AddTotal(cy)
	}
}

// chargeMem charges a memory access through the cache hierarchy.
func (e *Engine) chargeMem(addr uint64, size int) {
	if !e.charging {
		e.Cache.Touch(addr, size)
		return
	}
	if e.prof != nil {
		e.chargeMemProfiled(addr, size)
		return
	}
	cy := e.Cache.Access(addr, size)
	e.cycles += cy
	e.memCycles += cy
}

// chargeMemProfiled mirrors the unprofiled chargeMem bit-for-bit:
// Cache.Access sums per-line latencies in line order, and this loop performs
// the identical line accesses and additions in the identical order —
// attributing each line's latency to the level that served it — before
// charging the summed total once, exactly as `cycles += Cache.Access(...)`
// does. Profiled and unprofiled runs therefore charge identical cycles.
func (e *Engine) chargeMemProfiled(addr uint64, size int) {
	first := mem.LineOf(addr)
	n := mem.LinesTouched(addr, size)
	var cy float64
	for i := 0; i < n; i++ {
		lc, served := e.Cache.AccessLineServed(first + uint64(i)*mem.LineSize)
		cy += lc
		e.prof.AddSelf(e.profMemHandle(served), lc)
	}
	e.cycles += cy
	e.memCycles += cy
	e.prof.AddTotal(cy)
}

// MemAccess charges an access to [addr, addr+size) without transferring
// data. The KVS pipeline uses it to charge item-header touches.
func (e *Engine) MemAccess(addr uint64, size int) {
	e.chargeMem(addr, size)
}

// OverlappedAccess charges an access whose latency overlaps with independent
// neighbours — e.g. the full-key verifications of a Multi-Get batch, where
// the out-of-order window runs many independent item loads concurrently. As
// with gathers, the uncontended latency is scaled by the architecture's
// overlap factor while bandwidth-contention excess is charged in full.
func (e *Engine) OverlappedAccess(addr uint64, size int) {
	if !e.charging {
		e.Cache.Touch(addr, size)
		return
	}
	first := mem.LineOf(addr)
	n := mem.LinesTouched(addr, size)
	for i := 0; i < n; i++ {
		e.chargeGatherLine(first + uint64(i)*mem.LineSize)
	}
}

// --- Sequential-stream operations -------------------------------------------
//
// The query stream p_k[n] and result vector V[n] are read/written strictly
// sequentially, which modern hardware prefetchers fully hide: the line is in
// L1 by the time it is needed. Stream operations therefore charge the issue
// cost plus an L1 access, while still installing the lines in the simulated
// hierarchy so the streams compete with the table for cache capacity.

// StreamLoad reads a bits-wide value from a sequentially-accessed stream.
func (e *Engine) StreamLoad(a *mem.Arena, off, bits int) uint64 {
	e.Charge(arch.OpScalarLoadOp, arch.WidthScalar)
	e.chargeStream(a.Addr(off), bits/8)
	return a.ReadUint(off, bits)
}

// StreamStore writes a bits-wide value to a sequentially-accessed stream.
func (e *Engine) StreamStore(a *mem.Arena, off, bits int, v uint64) {
	e.Charge(arch.OpScalarStoreOp, arch.WidthScalar)
	e.chargeStream(a.Addr(off), bits/8)
	a.WriteUint(off, bits, v)
}

// StreamAccess charges a sequential access of size bytes at addr (used for
// vector-width stream loads/stores whose issue cost the caller charges).
func (e *Engine) StreamAccess(addr uint64, size int) {
	e.chargeStream(addr, size)
}

// streamAccessCycles is the effective cost of one prefetched, pipelined
// stream access: the prefetcher has the line in L1 and back-to-back L1 loads
// retire at pipeline throughput, not load-to-use latency.
const streamAccessCycles = 1.0

func (e *Engine) chargeStream(addr uint64, size int) {
	e.Cache.Touch(addr, size)
	if !e.charging {
		return
	}
	e.cycles += streamAccessCycles
	e.memCycles += streamAccessCycles
	if e.prof != nil {
		e.prof.AddSelf(e.profMemHandle(len(e.memLeafNames)-1), streamAccessCycles)
		e.prof.AddTotal(streamAccessCycles)
	}
}

// --- Scalar operations -----------------------------------------------------

// ScalarLoad loads a bits-wide unsigned value at off in the arena, charging
// the load issue plus the cache access.
func (e *Engine) ScalarLoad(a *mem.Arena, off, bits int) uint64 {
	e.Charge(arch.OpScalarLoadOp, arch.WidthScalar)
	e.chargeMem(a.Addr(off), bits/8)
	return a.ReadUint(off, bits)
}

// ScalarStore stores a bits-wide value at off, charging issue plus cache.
//
//lint:ignore reachlint ISA op driven by property tests: a charged op of the modelled ISA that the engine accounting tests exercise
func (e *Engine) ScalarStore(a *mem.Arena, off, bits int, v uint64) {
	e.Charge(arch.OpScalarStoreOp, arch.WidthScalar)
	e.chargeMem(a.Addr(off), bits/8)
	a.WriteUint(off, bits, v)
}

// ScalarHash charges the multiply-shift hash sequence (mul + shift) and is
// paired with hashfn evaluation done by the caller.
func (e *Engine) ScalarHash() {
	e.Charge(arch.OpScalarMul, arch.WidthScalar)
	e.Charge(arch.OpScalarALU, arch.WidthScalar)
}

// ScalarCompare charges a compare-and-branch pair.
func (e *Engine) ScalarCompare() {
	e.Charge(arch.OpScalarCmp, arch.WidthScalar)
	e.Charge(arch.OpScalarBranch, arch.WidthScalar)
}

// --- Vector operations ------------------------------------------------------

// Set1 broadcasts a value to all lanes (vec_set_lanes in Algorithm 1).
func (e *Engine) Set1(bits, laneBits int, val uint64) vec.Vec {
	e.Charge(arch.OpVecSet1, bits)
	return vec.Set1(bits, laneBits, val)
}

// VecLoad performs an unaligned vector load of bits/8 bytes at off.
//
//lint:ignore reachlint ISA op driven by property tests: a charged op of the modelled ISA that the engine accounting tests exercise
func (e *Engine) VecLoad(bits int, a *mem.Arena, off int) vec.Vec {
	e.Charge(arch.OpVecLoad, bits)
	e.chargeMem(a.Addr(off), bits/8)
	return vec.FromBytes(bits, a.Bytes(off, bits/8))
}

// VecLoadParts assembles a register from several non-contiguous spans (the
// vinsert sequence used to place two hash buckets in one vector, Fig. 3a).
// Each part is charged as a load plus, beyond the first, an insert shuffle.
//
//lint:ignore reachlint ISA op driven by property tests: a charged op of the modelled ISA that the engine accounting tests exercise
func (e *Engine) VecLoadParts(bits int, a *mem.Arena, offs []int, partBytes int) vec.Vec {
	if len(offs)*partBytes != bits/8 {
		panic(fmt.Sprintf("engine: %d parts of %d bytes cannot fill %d bits", len(offs), partBytes, bits))
	}
	buf := e.partsBuf[:bits/8]
	for i, off := range offs {
		e.Charge(arch.OpVecLoad, bits)
		if i > 0 {
			e.Charge(arch.OpVecShuffle, bits)
		}
		e.chargeMem(a.Addr(off), partBytes)
		copy(buf[i*partBytes:], a.Bytes(off, partBytes))
	}
	return vec.FromBytes(bits, buf)
}

// VecStore stores the register to off.
//
//lint:ignore reachlint ISA op driven by property tests: a charged op of the modelled ISA that the engine accounting tests exercise
func (e *Engine) VecStore(a *mem.Arena, off int, v vec.Vec) {
	e.Charge(arch.OpVecStore, v.Bits())
	e.chargeMem(a.Addr(off), v.Bytes())
	v.ToBytesInto(a.Bytes(off, v.Bytes()))
}

// CmpEq charges and performs a packed compare.
func (e *Engine) CmpEq(laneBits int, a, b vec.Vec) vec.Mask {
	e.Charge(arch.OpVecCmp, a.Bits())
	return vec.CmpEq(laneBits, a, b)
}

// Blend charges and performs a masked blend.
//
//lint:ignore reachlint ISA op driven by property tests: a charged op of the modelled ISA that the engine accounting tests exercise
func (e *Engine) Blend(laneBits int, m vec.Mask, a, b vec.Vec) vec.Vec {
	e.Charge(arch.OpVecBlend, a.Bits())
	return vec.Blend(laneBits, m, a, b)
}

// Shuffle charges one shuffle/permute op (data movement done by caller).
func (e *Engine) Shuffle(bits int) {
	e.Charge(arch.OpVecShuffle, bits)
}

// Movemask charges a mask-extraction op.
//
//lint:ignore reachlint ISA op driven by property tests: a charged op of the modelled ISA that the engine accounting tests exercise
func (e *Engine) Movemask(bits int) {
	e.Charge(arch.OpVecMovemask, bits)
}

// Reduce charges the horizontal reduction that extracts the matching payload
// from a match mask (vec_reduce in Algorithm 1).
func (e *Engine) Reduce(bits int) {
	e.Charge(arch.OpVecReduce, bits)
}

// VecHash charges the vectorized multiply-shift hash (vec_calc_hash in
// Algorithm 2): packed multiply, packed shift, packed and.
//
//lint:ignore reachlint ISA op driven by property tests: a charged op of the modelled ISA that the engine accounting tests exercise
func (e *Engine) VecHash(bits int) {
	e.Charge(arch.OpVecMul, bits)
	e.Charge(arch.OpVecShift, bits)
	e.Charge(arch.OpVecAnd, bits)
}

// Gather performs a masked gather: for every lane i with mask bit set, lane
// i of the gathered register is the laneBits-wide value at arena offset
// offs[i]; inactive lanes are zero. The register's lanes land in
// dst[:lanes], where the templates compare them, so no register is built
// only to be taken apart again. It charges the gather issue cost, a
// per-active-lane cost, and one cache access per *distinct* cache line
// touched — the property behind Observation ② (wider keys touch more lines
// per gathered batch).
func (e *Engine) Gather(bits, laneBits int, a *mem.Arena, offs []int, m vec.Mask, dst []uint64) {
	lanes := vec.NumLanes(bits, laneBits)
	if len(offs) != lanes || len(dst) < lanes {
		panic(fmt.Sprintf("engine: gather got %d offsets and %d destination lanes for %d lanes", len(offs), len(dst), lanes))
	}
	if laneBits > e.Arch.GatherMaxLaneBits {
		panic(fmt.Sprintf("engine: %s gathers support at most %d-bit lanes, got %d",
			e.Arch.Name, e.Arch.GatherMaxLaneBits, laneBits))
	}
	// All gather costs — issue, per-lane, and the gathered-line fills —
	// attribute to the gather phase regardless of the caller's bracket.
	prevPhase := e.phase
	e.phase = PhaseGather
	e.Charge(arch.OpVecGather, bits)
	// Distinct-line tracking reuses engine scratch: a gather touches at
	// most 2 lines per lane, so the fixed buffer always suffices and the
	// measured loop allocates nothing. Lines are charged at first sight,
	// in lane order, exactly as the map-based formulation did.
	seen := e.gatherSeen[:0]
	active := 0
	for i := 0; i < lanes; i++ {
		if !m.Test(i) {
			dst[i] = 0
			continue
		}
		active++
		e.Charge(arch.OpVecGatherLn, bits)
		addr := a.Addr(offs[i])
		first := mem.LineOf(addr)
		nl := mem.LinesTouched(addr, laneBits/8)
		for j := 0; j < nl; j++ {
			line := first + uint64(j*mem.LineSize)
			dup := false
			for _, s := range seen {
				if s == line {
					dup = true
					break
				}
			}
			if !dup {
				//lint:ignore alloclint seen reuses e.gatherSeen's backing array, capped at the lane count
				seen = append(seen, line)
				e.chargeGatherLine(line)
			}
		}
		dst[i] = a.ReadUint(offs[i], laneBits)
	}
	if e.charging && e.probe != nil {
		e.probe.GatherCharged(active, len(seen))
	}
	e.phase = prevPhase
}

// chargeGatherLine charges one gathered cache line with memory-level
// parallelism applied: the uncontended latency is scaled by the
// architecture's GatherOverlap (lane fetches of one gather overlap), while
// the contention excess — DRAM-bandwidth saturation under full subscription
// — is charged in full, since MLP cannot hide a saturated bus.
func (e *Engine) chargeGatherLine(line uint64) {
	if !e.charging {
		e.Cache.Touch(line, 1)
		return
	}
	total, excess, served := e.Cache.AccessLineDetailServed(line)
	cy := (total-excess)*e.Arch.GatherOverlap + excess
	e.cycles += cy
	e.memCycles += cy
	if e.prof != nil {
		e.prof.AddSelf(e.profMemHandle(served), cy)
		e.prof.AddTotal(cy)
	}
}
