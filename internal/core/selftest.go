package core

import (
	"fmt"
	"math/rand"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

// SelfTest cross-validates every lookup implementation on randomized
// configurations: for `trials` random layouts it builds and fills a table,
// generates hit/miss queries, and checks that the scalar, AMAC, horizontal,
// vertical and hybrid charged paths all return exactly the results of the
// native reference lookup. This is the correctness gate behind the
// performance engine — a SIMD design choice that returned wrong payloads
// would invalidate every figure.
//
// Returns the number of (configuration, variant) combinations checked.
func SelfTest(trials int, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	model := arch.SkylakeClusterA()
	checked := 0

	for trial := 0; trial < trials; trial++ {
		layout := randomLayout(rng)
		space := mem.NewAddressSpace()
		table, err := cuckoo.New(space, layout, rng.Int63())
		if err != nil {
			return checked, fmt.Errorf("selftest: trial %d: %w", trial, err)
		}
		// The fill draws from its own stream: a fill that stops early may
		// draw keys it never inserts (see FillRandom), which must not shift
		// the rest of the trial's draws.
		lf, fillRng := 0.5+rng.Float64()*0.35, rand.New(rand.NewSource(rng.Int63()))
		stored, _ := table.FillRandom(lf, fillRng)
		if len(stored) == 0 {
			continue
		}
		nq := 200 + rng.Intn(200)
		queries := make([]uint64, nq)
		for i := range queries {
			if rng.Float64() < 0.85 {
				queries[i] = stored[rng.Intn(len(stored))]
			} else {
				queries[i] = (rng.Uint64() & layout.KeyMask()) | 1
			}
		}
		stream := cuckoo.NewStream(space, queries, layout.KeyBits)
		res := cuckoo.NewResultBuf(space, nq, layout.ValBits)
		found := make([]bool, nq)

		check := func(variant string, run func(e *engine.Engine) int) error {
			e := engine.New(model, 1)
			for i := range found {
				found[i] = false
			}
			run(e)
			for i, q := range queries {
				wantV, wantOK := table.Lookup(q)
				if found[i] != wantOK {
					return fmt.Errorf("selftest: trial %d %s on %s: query %d found=%v want=%v",
						trial, variant, layout, i, found[i], wantOK)
				}
				if wantOK && res.Get(i) != wantV {
					return fmt.Errorf("selftest: trial %d %s on %s: query %d value %d want %d",
						trial, variant, layout, i, res.Get(i), wantV)
				}
			}
			checked++
			return nil
		}

		if err := check("scalar", func(e *engine.Engine) int {
			return table.LookupScalarBatch(e, stream, 0, nq, res, found)
		}); err != nil {
			return checked, err
		}
		if err := check("amac", func(e *engine.Engine) int {
			return table.LookupAMACBatch(e, stream, 0, nq, cuckoo.AMACConfig{GroupSize: 2 + rng.Intn(14)}, res, found)
		}); err != nil {
			return checked, err
		}
		for _, c := range EnumerateChoices(model, layout, nil, []Approach{Horizontal, Vertical, VerticalHybrid}) {
			c := c
			var run func(e *engine.Engine) int
			switch c.Approach {
			case Horizontal:
				cfg := cuckoo.HorizontalConfig{Width: c.Width, BucketsPerVec: 1 + rng.Intn(c.BucketsPerVec)}
				run = func(e *engine.Engine) int {
					return table.LookupHorizontalBatch(e, stream, 0, nq, cfg, res, found)
				}
			default:
				cfg := cuckoo.VerticalConfig{Width: c.Width}
				run = func(e *engine.Engine) int {
					return table.LookupVerticalBatch(e, stream, 0, nq, cfg, res, found)
				}
			}
			if err := check(c.String(), run); err != nil {
				return checked, err
			}
		}
	}
	return checked, nil
}

// randomLayout draws a valid layout spanning the paper's design space.
func randomLayout(rng *rand.Rand) cuckoo.Layout {
	ns := []int{2, 3, 4}
	ms := []int{1, 2, 4, 8}
	kbs := []int{16, 32, 64}
	vbs := []int{16, 32, 64}
	for {
		l := cuckoo.Layout{
			N:          ns[rng.Intn(len(ns))],
			M:          ms[rng.Intn(len(ms))],
			KeyBits:    kbs[rng.Intn(len(kbs))],
			ValBits:    vbs[rng.Intn(len(vbs))],
			BucketBits: 6 + rng.Intn(5),
		}
		if l.M > 1 && rng.Intn(2) == 1 {
			l.Split = true
		}
		// 16-bit keys need a keyspace comfortably above the slot count for
		// the fill to find distinct keys.
		if l.KeyBits == 16 && l.Slots() > 1<<13 {
			continue
		}
		if l.Validate() == nil {
			return l
		}
	}
}
