package engine

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/vec"
)

// TestOpCyclesDefensiveCopy locks in that the breakdown is handed out by
// value: mutating a map built from ForEachOpCycle must not corrupt engine
// accounting.
func TestOpCyclesDefensiveCopy(t *testing.T) {
	e := newEng()
	e.Charge(arch.OpScalarALU, arch.WidthScalar)
	want := opCycles(e)[arch.OpScalarALU]
	if want <= 0 {
		t.Fatal("charged op missing from breakdown")
	}

	m := opCycles(e)
	m[arch.OpScalarALU] = -1e9
	m[arch.OpVecGather] = 42

	if got := opCycles(e)[arch.OpScalarALU]; got != want {
		t.Errorf("mutating the returned map changed engine accounting: %v, want %v", got, want)
	}
	if _, ok := opCycles(e)[arch.OpVecGather]; ok {
		t.Error("key inserted into the returned map leaked into engine accounting")
	}
}

// runProbeWorkload exercises every charged path: scalar/vector ops,
// streams, gathers, overlapped accesses and fixed costs.
func runProbeWorkload(e *Engine) {
	a := mem.NewAddressSpace().Alloc(4096)
	e.ScalarHash()
	e.ScalarStore(a, 0, 64, 7)
	if e.ScalarLoad(a, 0, 64) != 7 {
		panic("scalar load mismatch")
	}
	e.StreamStore(a, 64, 64, 9)
	e.StreamLoad(a, 64, 64)
	e.ChargeCycles(12.5)
	v := e.Set1(256, 32, 3)
	e.CmpEq(32, v, v)
	offs := make([]int, vec.NumLanes(256, 32))
	for i := range offs {
		offs[i] = i * 8
	}
	e.Gather(256, 32, a, offs, vec.Mask(0xFF), make([]uint64, len(offs)))
	e.OverlappedAccess(a.Addr(256), 128)
}

// TestProbeDoesNotChangeAccounting is the zero-overhead contract: a probed
// engine charges exactly the same cycles, per-class op counts and breakdown
// as a bare one.
func TestProbeDoesNotChangeAccounting(t *testing.T) {
	bare := newEng()
	runProbeWorkload(bare)

	probed := newEng()
	col := obs.NewCollector().Scope("config", "test")
	probed.SetProbe(col.EngineProbe())
	probed.Cache.Probe = col.CacheProbe()
	runProbeWorkload(probed)

	if bare.Cycles() != probed.Cycles() {
		t.Errorf("cycles differ with probe attached: %v vs %v", bare.Cycles(), probed.Cycles())
	}
	if bare.Ops() != probed.Ops() {
		t.Errorf("ops differ with probe attached: %d vs %d", bare.Ops(), probed.Ops())
	}
	if bare.MemCycles() != probed.MemCycles() {
		t.Errorf("mem cycles differ with probe attached: %v vs %v", bare.MemCycles(), probed.MemCycles())
	}
	if bare.FixedCycles() != probed.FixedCycles() {
		t.Errorf("fixed cycles differ with probe attached: %v vs %v", bare.FixedCycles(), probed.FixedCycles())
	}
	if bc, pc := opCounts(bare), opCounts(probed); !maps.Equal(bc, pc) {
		t.Errorf("per-class op counts differ with probe attached: %v vs %v", bc, pc)
	}
	bo, po := opCycles(bare), opCycles(probed)
	if len(bo) != len(po) {
		t.Fatalf("op breakdown sizes differ: %d vs %d", len(bo), len(po))
	}
	for k, v := range bo {
		if po[k] != v {
			t.Errorf("op %v cycles differ: %v vs %v", k, v, po[k])
		}
	}
}

// TestWarmupIsUnobserved: with charging off (warm-up), the probes must see
// no gather or cache events — warm-up stays free and silent.
func TestWarmupIsUnobserved(t *testing.T) {
	e := newEng()
	col := obs.NewCollector().Scope("config", "warm")
	e.SetProbe(col.EngineProbe())
	e.Cache.Probe = col.CacheProbe()

	e.SetCharging(false)
	runProbeWorkload(e)
	e.SetCharging(true)

	var buf bytes.Buffer
	if err := col.Registry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Per-level series are created lazily on first event, so they must be
	// entirely absent after an uncharged run.
	for _, series := range []string{"cache_accesses_total", "cache_evictions_total"} {
		if strings.Contains(out, series) {
			t.Errorf("series %s recorded during warm-up:\n%s", series, out)
		}
	}
	// Eagerly created counters must still read zero. (The license width
	// gauge is the documented exception: width licensing is not a charge
	// and is tracked even while charging is off.)
	for _, line := range []string{
		"counter engine_gathers_total{config=warm} 0",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("expected %q in warm-up output:\n%s", line, out)
		}
	}
}
