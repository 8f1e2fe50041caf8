package core

import (
	"fmt"
	"math/rand"

	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/workload"
)

// RunMixed extends the performance engine to mixed read/update workloads —
// the paper's stated future work (Section VII). A fraction of the operation
// stream updates the payload of stored keys; the rest are lookups with the
// configured pattern and hit rate.
//
// Updates fragment SIMD batches: the vertical template processes contiguous
// lookup runs, and every interposed update flushes the current batch and
// runs the inherently-scalar cuckoo insert path. RunMixed therefore
// reproduces both costs of update traffic — the scalar update itself and
// the lost batching efficiency — and shows how quickly the SIMD advantage
// erodes as the update fraction grows.
func RunMixed(p Params, updateFraction float64) (*Result, error) {
	if !(updateFraction >= 0 && updateFraction <= 1) {
		return nil, fmt.Errorf("core: update fraction %v outside [0,1]", updateFraction)
	}
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	layout, err := cuckoo.LayoutForBytes(p.N, p.M, p.KeyBits, p.ValBits, p.TableBytes)
	if err != nil {
		return nil, err
	}
	layout.Split = p.Split
	if err := layout.Validate(); err != nil {
		return nil, err
	}

	space := mem.NewAddressSpace()
	table, err := cuckoo.New(space, layout, p.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed + 1))
	stored, lf := table.FillRandom(p.LoadFactor, rng)
	if len(stored) == 0 {
		return nil, fmt.Errorf("core: table fill produced no items for %s", layout)
	}

	gen, err := workload.New(stored, workload.Config{
		Pattern:   p.Pattern,
		ZipfTheta: p.ZipfTheta,
		HitRate:   p.HitRate,
		KeyBits:   p.KeyBits,
		Seed:      p.Seed + 2,
	})
	if err != nil {
		return nil, err
	}

	// Build the operation stream: every op has a key; isUpdate marks the
	// update positions. Update keys are stored keys (payload overwrites),
	// so the load factor stays fixed across the run.
	total := p.Warmup + p.Queries
	keys := make([]uint64, total)
	isUpdate := make([]bool, total)
	opRng := rand.New(rand.NewSource(p.Seed + 3))
	for i := range keys {
		if opRng.Float64() < updateFraction {
			keys[i] = stored[opRng.Intn(len(stored))]
			isUpdate[i] = true
		} else {
			keys[i] = gen.Next()
		}
	}
	stream := cuckoo.NewStream(space, keys, p.KeyBits)
	res := cuckoo.NewResultBuf(space, total, p.ValBits)

	result := &Result{Params: p, Layout: layout, AchievedLF: lf, Inserted: len(stored)}

	mixedRun := func(lookupSpan func(e *engine.Engine, from, n int) int) func(e *engine.Engine, from, n int) int {
		return func(e *engine.Engine, from, n int) int {
			hits := 0
			spanStart := from
			for i := from; i < from+n; i++ {
				if !isUpdate[i] {
					continue
				}
				if i > spanStart {
					hits += lookupSpan(e, spanStart, i-spanStart)
				}
				// The update: overwrite the stored key's payload.
				if err := table.InsertCharged(e, keys[i], cuckoo.PayloadFor(keys[i]+1, p.ValBits)); err != nil {
					panic(fmt.Sprintf("core: mixed update failed: %v", err))
				}
				spanStart = i + 1
			}
			if end := from + n; end > spanStart {
				hits += lookupSpan(e, spanStart, end-spanStart)
			}
			return hits
		}
	}

	scalarSpan := func(e *engine.Engine, from, n int) int {
		return table.LookupScalarBatch(e, stream, from, n, res, nil)
	}
	result.Scalar = measure(p, table, mixedRun(scalarSpan), 64, "scalar")
	result.Scalar.Scalar = true

	for _, c := range EnumerateChoices(p.Arch, layout, p.Widths, p.Approaches) {
		c := c
		var span func(e *engine.Engine, from, n int) int
		switch c.Approach {
		case Horizontal:
			cfg := cuckoo.HorizontalConfig{Width: c.Width, BucketsPerVec: c.BucketsPerVec}
			span = func(e *engine.Engine, from, n int) int {
				return table.LookupHorizontalBatch(e, stream, from, n, cfg, res, nil)
			}
		case Vertical, VerticalHybrid:
			cfg := cuckoo.VerticalConfig{Width: c.Width}
			span = func(e *engine.Engine, from, n int) int {
				return table.LookupVerticalBatch(e, stream, from, n, cfg, res, nil)
			}
		}
		m := measure(p, table, mixedRun(span), c.Width, c.String())
		m.Choice = c
		result.Vector = append(result.Vector, m)
	}
	return result, nil
}
