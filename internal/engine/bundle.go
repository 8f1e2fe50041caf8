package engine

import "simdhtbench/internal/arch"

// CostItem names one op in a CostBundle: an op class executed at a vector
// width.
type CostItem struct {
	Class arch.OpClass
	Width int
}

// CostBundle is a precomputed sequence of op charges — the fused-kernel
// counterpart of issuing the same Charge calls one by one. The costs are
// resolved once, at construction, against a specific architecture model;
// charging the bundle adds them in item order, so the floating-point
// accumulation sequence (and therefore the final cycle count, bit for bit)
// is identical to the per-op path, and adds each class's op count once,
// from the per-class counts taken at construction. Lookup templates build
// bundles once per (model, width, template) pair and charge them per
// iteration, replacing N cost-table resolutions per lookup with N float
// additions.
type CostBundle struct {
	model    *arch.Model
	items    []bundleItem
	maxWidth int
	counts   []classCount // each class in items once, with its item count
}

type bundleItem struct {
	class arch.OpClass
	width int
	cost  float64
}

type classCount struct {
	class arch.OpClass
	n     uint64
}

// NewCostBundle resolves the items' costs against m. The bundle is
// immutable and safe to share across engines running the same model.
func NewCostBundle(m *arch.Model, items []CostItem) *CostBundle {
	//lint:ignore alloclint bundles are built once at template warm-up and shared; the charging fast path only reads them
	b := &CostBundle{model: m, items: make([]bundleItem, len(items)), counts: make([]classCount, 0, len(items))}
	for i, it := range items {
		b.items[i] = bundleItem{class: it.Class, width: it.Width, cost: m.Cost(it.Class, it.Width)}
		if it.Width > b.maxWidth {
			b.maxWidth = it.Width
		}
		b.count(it.Class)
	}
	return b
}

func (b *CostBundle) count(c arch.OpClass) {
	for i := range b.counts {
		if b.counts[i].class == c {
			b.counts[i].n++
			return
		}
	}
	//lint:ignore alloclint stays within the len(items) capacity NewCostBundle reserves
	b.counts = append(b.counts, classCount{class: c, n: 1})
}

// ChargeBatch charges every op in the bundle, exactly as the equivalent
// sequence of Charge calls would: same cycle totals (bit for bit, because
// the additions happen in the same order on the same precomputed values),
// same per-class cycles and op counts, and — when a profiler is attached —
// the same attribution. The batched fast path engages only when nothing
// observable differs from the per-op path: charging on, no width license
// pending (the one charge a probe sees), fusing enabled, and the bundle
// resolved against this engine's model; otherwise it decays to per-op
// Charge calls. An attached profiler keeps the fast path: the profiled
// loop performs the identical additions in the identical order and
// attributes each item to the same (phase, op class) leaf Charge would, so
// the account — like the cycle total — matches the per-op path bit for bit.
func (e *Engine) ChargeBatch(b *CostBundle) {
	if !e.fused || !e.charging || b.maxWidth > e.maxWidth || b.model != e.Arch {
		for i := range b.items {
			e.Charge(b.items[i].class, b.items[i].width)
		}
		return
	}
	if e.prof != nil {
		for i := range b.items {
			it := &b.items[i]
			e.cycles += it.cost
			e.opCycles[it.class] += it.cost
			e.prof.AddSelf(e.profOpHandle(it.class), it.cost)
			e.prof.AddTotal(it.cost)
		}
	} else {
		for i := range b.items {
			it := &b.items[i]
			e.cycles += it.cost
			e.opCycles[it.class] += it.cost
		}
	}
	for _, cc := range b.counts {
		e.opCount[cc.class] += cc.n
	}
}
