package engine

import (
	"maps"
	"math"
	"testing"

	"simdhtbench/internal/arch"
)

func bundleItems() []CostItem {
	return []CostItem{
		{Class: arch.OpVecMul, Width: 512},
		{Class: arch.OpVecShift, Width: 512},
		{Class: arch.OpVecAnd, Width: 512},
		{Class: arch.OpVecMovemask, Width: 256},
		{Class: arch.OpScalarBranch, Width: arch.WidthScalar},
		{Class: arch.OpVecCmp, Width: 512},
		{Class: arch.OpVecMul, Width: 512},
	}
}

// TestChargeBatchMatchesPerOpBitwise is the differential test behind the
// fused-charging optimization: charging a bundle many times must yield
// cycle totals identical to the last bit, the same per-class cycles and op
// counts as issuing the equivalent per-op Charge calls — float64
// addition is not associative, so this only holds because the fast path
// adds the precomputed costs in exactly the per-op order.
func TestChargeBatchMatchesPerOpBitwise(t *testing.T) {
	m := arch.SkylakeClusterA()
	items := bundleItems()
	b := NewCostBundle(m, items)

	perOp := New(m, 1)
	batched := New(m, 1)
	const rounds = 10000
	for r := 0; r < rounds; r++ {
		for _, it := range items {
			perOp.Charge(it.Class, it.Width)
		}
		batched.ChargeBatch(b)
	}

	if math.Float64bits(perOp.Cycles()) != math.Float64bits(batched.Cycles()) {
		t.Fatalf("cycles diverge: per-op %x (%.17g) vs batched %x (%.17g)",
			math.Float64bits(perOp.Cycles()), perOp.Cycles(),
			math.Float64bits(batched.Cycles()), batched.Cycles())
	}
	if perOp.Ops() != batched.Ops() {
		t.Fatalf("op counts diverge: %d vs %d", perOp.Ops(), batched.Ops())
	}
	if want, got := opCounts(perOp), opCounts(batched); !maps.Equal(want, got) {
		t.Fatalf("per-class op counts diverge: per-op %v vs batched %v", want, got)
	}
	want := opCycles(perOp)
	got := opCycles(batched)
	if len(want) != len(got) {
		t.Fatalf("op-class sets diverge: %v vs %v", want, got)
	}
	for c, cy := range want {
		if math.Float64bits(got[c]) != math.Float64bits(cy) {
			t.Fatalf("class %v diverges: %.17g vs %.17g", c, cy, got[c])
		}
	}
	if perOp.MaxWidth() != batched.MaxWidth() {
		t.Fatalf("license widths diverge: %d vs %d", perOp.MaxWidth(), batched.MaxWidth())
	}
}

// TestChargeBatchFallbackPaths drives every condition that must decay the
// batched fast path to per-op Charge calls and checks the outcome still
// matches per-op charging bitwise.
func TestChargeBatchFallbackPaths(t *testing.T) {
	m := arch.SkylakeClusterA()
	items := bundleItems()
	b := NewCostBundle(m, items)

	ref := New(m, 1)
	for _, it := range items {
		ref.Charge(it.Class, it.Width)
	}

	cases := []struct {
		name string
		prep func(e *Engine)
	}{
		// A fresh engine has only the scalar width licensed, so the first
		// batch must take the fallback (it performs the width licensing).
		{"width-license", func(e *Engine) {}},
		{"fusing-disabled", func(e *Engine) { e.SetFusedCharging(false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(m, 1)
			tc.prep(e)
			e.ChargeBatch(b)
			if math.Float64bits(e.Cycles()) != math.Float64bits(ref.Cycles()) {
				t.Fatalf("cycles diverge: %.17g vs ref %.17g", e.Cycles(), ref.Cycles())
			}
			if e.Ops() != ref.Ops() {
				t.Fatalf("ops diverge: %d vs %d", e.Ops(), ref.Ops())
			}
			if e.MaxWidth() != ref.MaxWidth() {
				t.Fatalf("license widths diverge: %d vs %d", e.MaxWidth(), ref.MaxWidth())
			}
		})
	}
}

// TestChargeBatchForeignModelFallsBack charges a bundle resolved against a
// different CPU model: the engine must ignore the precomputed costs and
// charge through its own cost table.
func TestChargeBatchForeignModelFallsBack(t *testing.T) {
	skx := arch.SkylakeClusterA()
	clx := arch.CascadeLake()
	b := NewCostBundle(skx, bundleItems())

	onCLX := New(clx, 1)
	onCLX.ChargeBatch(b)

	ref := New(clx, 1)
	for _, it := range bundleItems() {
		ref.Charge(it.Class, it.Width)
	}
	if math.Float64bits(onCLX.Cycles()) != math.Float64bits(ref.Cycles()) {
		t.Fatalf("foreign-model batch: %.17g vs per-op %.17g", onCLX.Cycles(), ref.Cycles())
	}
}

// TestChargeBatchRespectsChargingToggle: an uncharged (warm-up) window must
// add nothing, exactly like per-op Charge.
func TestChargeBatchRespectsChargingToggle(t *testing.T) {
	m := arch.SkylakeClusterA()
	b := NewCostBundle(m, bundleItems())
	e := New(m, 1)
	e.SetCharging(false)
	e.ChargeBatch(b)
	if e.Cycles() != 0 || e.Ops() != 0 {
		t.Fatalf("uncharged batch leaked: %g cycles, %d ops", e.Cycles(), e.Ops())
	}
}
