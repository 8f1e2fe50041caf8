package engine

import (
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/vec"
)

func newEng() *Engine {
	return New(arch.SkylakeClusterA(), 1)
}

// opCycles collects the per-class breakdown ForEachOpCycle reports.
func opCycles(e *Engine) map[arch.OpClass]float64 {
	out := make(map[arch.OpClass]float64)
	e.ForEachOpCycle(func(c arch.OpClass, cy float64) { out[c] = cy })
	return out
}

// opCounts collects the per-class op counts of every charged class.
func opCounts(e *Engine) map[arch.OpClass]uint64 {
	out := make(map[arch.OpClass]uint64)
	e.ForEachOpCycle(func(c arch.OpClass, _ float64) { out[c] = e.OpCount(c) })
	return out
}

func TestChargeAccumulates(t *testing.T) {
	e := newEng()
	e.Charge(arch.OpScalarALU, arch.WidthScalar)
	e.Charge(arch.OpScalarMul, arch.WidthScalar)
	want := e.Arch.Cost(arch.OpScalarALU, arch.WidthScalar) + e.Arch.Cost(arch.OpScalarMul, arch.WidthScalar)
	if e.Cycles() != want {
		t.Errorf("cycles = %v, want %v", e.Cycles(), want)
	}
	if e.Ops() != 2 {
		t.Errorf("ops = %d, want 2", e.Ops())
	}
}

func TestMaxWidthTracksLicense(t *testing.T) {
	e := newEng()
	if e.MaxWidth() != arch.WidthScalar {
		t.Errorf("initial max width %d", e.MaxWidth())
	}
	e.Charge(arch.OpVecCmp, 256)
	if e.MaxWidth() != 256 {
		t.Errorf("after AVX2 op, max width %d", e.MaxWidth())
	}
	e.Charge(arch.OpVecCmp, 512)
	e.Charge(arch.OpScalarALU, arch.WidthScalar)
	if e.MaxWidth() != 512 {
		t.Errorf("max width must be sticky, got %d", e.MaxWidth())
	}
}

// TestSecondsUsesLicensedFrequency pins the inputs of the cycles-to-seconds
// conversion measurements make (Cycles at Arch.Frequency(MaxWidth)): the
// engine runs at the scalar clock until it charges a 512-bit op, and at the
// AVX-512 license clock from then on.
func TestSecondsUsesLicensedFrequency(t *testing.T) {
	e := newEng()
	e.ChargeCycles(1e9)
	if got := e.Arch.Frequency(e.MaxWidth()); got != e.Arch.ScalarGHz {
		t.Errorf("scalar run licensed at %v GHz, want %v", got, e.Arch.ScalarGHz)
	}
	e.Charge(arch.OpVecCmp, 512)
	if got := e.Arch.Frequency(e.MaxWidth()); got != e.Arch.AVX512GHz {
		t.Errorf("512-bit run licensed at %v GHz, want %v", got, e.Arch.AVX512GHz)
	}
}

func TestChargingToggle(t *testing.T) {
	e := newEng()
	e.SetCharging(false)
	e.Charge(arch.OpScalarMul, arch.WidthScalar)
	space := mem.NewAddressSpace()
	a := space.Alloc(64)
	e.ScalarLoad(a, 0, 32)
	if e.Cycles() != 0 {
		t.Errorf("uncharged mode accumulated %v cycles", e.Cycles())
	}
	// But the access warmed the cache: the next charged access is an L1 hit.
	e.SetCharging(true)
	e.ScalarLoad(a, 0, 32)
	l1 := e.Arch.Caches[0].Latency
	issue := e.Arch.Cost(arch.OpScalarLoadOp, arch.WidthScalar)
	if got := e.Cycles(); got != l1+issue {
		t.Errorf("post-warm-up load = %v cycles, want %v", got, l1+issue)
	}
}

func TestScalarLoadStoreFunctional(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(64)
	e.ScalarStore(a, 8, 32, 0xABCD)
	if got := e.ScalarLoad(a, 8, 32); got != 0xABCD {
		t.Errorf("round trip = %#x", got)
	}
}

func TestVecLoadMatchesArena(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(64)
	a.Write32(0, 111)
	a.Write32(4, 222)
	v := e.VecLoad(128, a, 0)
	if v.Lane(32, 0) != 111 || v.Lane(32, 1) != 222 {
		t.Errorf("VecLoad lanes = %v", v.ToLanes(32))
	}
}

func TestVecLoadPartsAssembles(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(256)
	a.Write32(0, 1)
	a.Write32(128, 2)
	v := e.VecLoadParts(128, a, []int{0, 128}, 8)
	if v.Lane(32, 0) != 1 || v.Lane(32, 2) != 2 {
		t.Errorf("parts lanes = %v", v.ToLanes(32))
	}
}

func TestVecStoreWritesBack(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(64)
	v := vec.Set1(128, 32, 77)
	e.VecStore(a, 16, v)
	if a.Read32(16) != 77 || a.Read32(28) != 77 {
		t.Error("VecStore did not write all lanes")
	}
}

func TestGatherFunctionalAndMasked(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(1024)
	for i := 0; i < 8; i++ {
		a.Write32(i*100, uint32(i+1))
	}
	offs := []int{0, 100, 200, 300, 400, 500, 600, 700}
	v := make([]uint64, 8)
	e.Gather(256, 32, a, offs, 0b10101010, v)
	for i := 0; i < 8; i++ {
		want := uint64(0)
		if i%2 == 1 {
			want = uint64(i + 1)
		}
		if got := v[i]; got != want {
			t.Errorf("gather lane %d = %d, want %d", i, got, want)
		}
	}
}

func TestGatherChargesDistinctLinesOnce(t *testing.T) {
	// Eight lanes hitting the same cache line must charge the line once.
	e := newEng()
	a := mem.NewAddressSpace().Alloc(256)
	e.Cache.Touch(a.Base(), a.Size())
	e.ResetCycles()
	sameLine := []int{0, 4, 8, 12, 16, 20, 24, 28}
	e.Gather(256, 32, a, sameLine, vec.LaneMaskAll(8), make([]uint64, 8))
	same := e.MemCycles()

	e2 := newEng()
	b := mem.NewAddressSpace().Alloc(1024)
	e2.Cache.Touch(b.Base(), b.Size())
	e2.ResetCycles()
	spread := []int{0, 64, 128, 192, 256, 320, 384, 448}
	e2.Gather(256, 32, b, spread, vec.LaneMaskAll(8), make([]uint64, 8))
	diff := e2.MemCycles()

	if same*4 > diff {
		t.Errorf("same-line gather (%v) should be far cheaper than spread gather (%v)", same, diff)
	}
}

func TestGatherRejectsWideLanes(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(64)
	defer func() {
		if recover() == nil {
			t.Error("gather with >64-bit lanes should panic")
		}
	}()
	// 128-bit lanes are not a legal gather element width.
	e.Gather(256, 128, a, []int{0, 16}, 0b11, make([]uint64, 2))
}

func TestGatherOverlapVsScalarCost(t *testing.T) {
	// A gathered line must cost less than a scalar (dependent) access to
	// the same cold line — the MLP effect.
	e := newEng()
	a := mem.NewAddressSpace().Alloc(4096)
	e.Gather(256, 32, a, []int{0, 64, 128, 192, 256, 320, 384, 448}, vec.LaneMaskAll(8), make([]uint64, 8))
	gatherMem := e.MemCycles()

	e2 := newEng()
	b := mem.NewAddressSpace().Alloc(4096)
	for i := 0; i < 8; i++ {
		e2.ScalarLoad(b, i*64, 32)
	}
	scalarMem := e2.MemCycles()
	if gatherMem >= scalarMem {
		t.Errorf("gather mem %v not cheaper than scalar mem %v", gatherMem, scalarMem)
	}
}

func TestContentionExcessNotOverlapped(t *testing.T) {
	// Under full subscription, the contention excess must be charged in
	// full for gathers: the gap between gather and scalar cost narrows.
	ratio := func(cores int) float64 {
		e := New(arch.SkylakeClusterA(), cores)
		a := mem.NewAddressSpace().Alloc(4096)
		e.Gather(256, 32, a, []int{0, 64, 128, 192, 256, 320, 384, 448}, vec.LaneMaskAll(8), make([]uint64, 8))
		g := e.MemCycles()
		e2 := New(arch.SkylakeClusterA(), cores)
		b := mem.NewAddressSpace().Alloc(4096)
		for i := 0; i < 8; i++ {
			e2.ScalarLoad(b, i*64, 32)
		}
		return g / e2.MemCycles()
	}
	if r1, r40 := ratio(1), ratio(40); r40 <= r1 {
		t.Errorf("contention should narrow the gather advantage: 1-core ratio %v, 40-core ratio %v", r1, r40)
	}
}

func TestStreamOpsAreCheapAndWarm(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(64)
	a.Write32(0, 5)
	if got := e.StreamLoad(a, 0, 32); got != 5 {
		t.Errorf("stream load = %d", got)
	}
	cold := e.Cycles()
	e2 := newEng()
	e2.ScalarLoad(mem.NewAddressSpace().Alloc(64), 0, 32)
	if cold >= e2.Cycles() {
		t.Errorf("stream load (%v) should be cheaper than a cold scalar load (%v)", cold, e2.Cycles())
	}
	// And the line is now cached.
	e.ResetCycles()
	e.ScalarLoad(a, 0, 32)
	if e.Cache.DRAMAccesses() != 0 {
		t.Error("stream load did not install the line")
	}
}

func TestResetCyclesKeepsCaches(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(64)
	e.ScalarLoad(a, 0, 32)
	e.ChargeCycles(arch.SlotEmptyCheckCycles)
	e.ResetCycles()
	if e.Cycles() != 0 || e.Ops() != 0 || e.MemCycles() != 0 || e.FixedCycles() != 0 {
		t.Error("ResetCycles left counters dirty")
	}
	e.ScalarLoad(a, 0, 32)
	if e.Cache.DRAMAccesses() != 0 {
		t.Error("ResetCycles should keep cache contents")
	}
}

func TestOpCyclesBreakdown(t *testing.T) {
	e := newEng()
	e.Charge(arch.OpVecCmp, 256)
	e.Charge(arch.OpVecCmp, 256)
	bd := opCycles(e)
	want := 2 * e.Arch.Cost(arch.OpVecCmp, 256)
	if bd[arch.OpVecCmp] != want {
		t.Errorf("breakdown[cmp] = %v, want %v", bd[arch.OpVecCmp], want)
	}
	if n := e.OpCount(arch.OpVecCmp); n != 2 {
		t.Errorf("count[cmp] = %d, want 2", n)
	}
}

func TestDRAMPenaltyAppliedByCores(t *testing.T) {
	one := New(arch.SkylakeClusterA(), 1)
	full := New(arch.SkylakeClusterA(), 40)
	a1 := mem.NewAddressSpace().Alloc(64)
	a2 := mem.NewAddressSpace().Alloc(64)
	one.ScalarLoad(a1, 0, 32)
	full.ScalarLoad(a2, 0, 32)
	if full.Cycles() <= one.Cycles() {
		t.Errorf("full-subscription cold miss (%v) should cost more than single-core (%v)", full.Cycles(), one.Cycles())
	}
}

func TestOverlappedAccessCheaperThanMemAccess(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(4096)
	e.OverlappedAccess(a.Addr(0), 64)
	overlapped := e.Cycles()
	e2 := newEng()
	b := mem.NewAddressSpace().Alloc(4096)
	e2.MemAccess(b.Addr(0), 64)
	if overlapped >= e2.Cycles() {
		t.Errorf("overlapped access (%v) not cheaper than plain access (%v)", overlapped, e2.Cycles())
	}
}

func TestVecStoreChargesAndWrites(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(128)
	v := vec.Set1(256, 32, 0xABCD)
	e.VecStore(a, 0, v)
	if a.Read32(28) != 0xABCD {
		t.Error("VecStore lane missing")
	}
	if e.Cycles() == 0 {
		t.Error("VecStore charged nothing")
	}
}

func TestBlendShuffleMovemaskReduceCharges(t *testing.T) {
	e := newEng()
	x := vec.Set1(256, 32, 1)
	y := vec.Set1(256, 32, 2)
	out := e.Blend(32, 0b1, x, y)
	if out.Lane(32, 0) != 2 || out.Lane(32, 1) != 1 {
		t.Error("Blend functional result wrong")
	}
	before := e.Cycles()
	e.Shuffle(256)
	e.Movemask(256)
	e.Reduce(256)
	e.VecHash(256)
	if e.Cycles() <= before {
		t.Error("vector op wrappers charged nothing")
	}
}

func TestCmpEqCharges(t *testing.T) {
	e := newEng()
	x := vec.Set1(128, 32, 3)
	m := e.CmpEq(32, x, x)
	if m.Count() != 4 {
		t.Errorf("CmpEq mask = %b", m)
	}
	if e.Cycles() == 0 {
		t.Error("CmpEq charged nothing")
	}
}

func TestSecondsAt(t *testing.T) {
	e := newEng()
	e.ChargeCycles(2.4e9)
	seconds := func(width int) float64 { return e.Cycles() / (e.Arch.Frequency(width) * 1e9) }
	if got := seconds(arch.WidthScalar); got != 1.0 {
		t.Errorf("scalar seconds = %v, want 1.0s at 2.4 GHz", got)
	}
	if seconds(arch.WidthAVX512) <= 1.0 {
		t.Error("AVX-512 license must stretch the same cycles over more time")
	}
}

func TestSet1Charges(t *testing.T) {
	e := newEng()
	v := e.Set1(512, 32, 9)
	if v.Lane(32, 15) != 9 {
		t.Error("Set1 functional result wrong")
	}
	if e.Ops() != 1 {
		t.Errorf("ops = %d", e.Ops())
	}
}

func TestStreamStoreWrites(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(64)
	e.StreamStore(a, 8, 32, 123)
	if a.Read32(8) != 123 {
		t.Error("StreamStore did not write")
	}
}

// TestResetAllClearsEverything: a measurement that needs a clean slate builds
// a new engine, and a new engine shares no counters, license or cache state
// with an earlier one on the same model.
func TestResetAllClearsEverything(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(64)
	e.Charge(arch.OpVecCmp, 512)
	e.ScalarLoad(a, 0, 32)
	e = New(e.Arch, 1)
	if e.Cycles() != 0 || e.MaxWidth() != arch.WidthScalar || len(opCycles(e)) != 0 {
		t.Error("new engine inherited state")
	}
	// Cache is fresh too: reload is a cold miss.
	e.ScalarLoad(a, 0, 32)
	if e.Cache.DRAMAccesses() != 1 {
		t.Error("new engine should start with a cold cache")
	}
}

func TestVecLoadPartsValidation(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(64)
	defer func() {
		if recover() == nil {
			t.Error("mismatched parts accepted")
		}
	}()
	e.VecLoadParts(256, a, []int{0}, 8) // 8 bytes cannot fill 32
}

func TestGatherWrongOffsetsPanics(t *testing.T) {
	e := newEng()
	a := mem.NewAddressSpace().Alloc(64)
	defer func() {
		if recover() == nil {
			t.Error("wrong offset count accepted")
		}
	}()
	e.Gather(256, 32, a, []int{0, 4}, 0b11, make([]uint64, 8)) // needs 8 offsets
}

// TestCoresAccessor pins what the core count does: it sets the DRAM
// contention penalty of the engine's cache hierarchy.
func TestCoresAccessor(t *testing.T) {
	m := arch.SkylakeClusterA()
	if got, want := New(m, 7).Cache.DRAMPenalty, m.DRAMPenalty(7); got != want {
		t.Errorf("7-core DRAM penalty = %v, want %v", got, want)
	}
}
