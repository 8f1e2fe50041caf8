package core

import (
	"fmt"
	"math/rand"
	"sort"

	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/mem"
)

// The advisor delivers the design guidance the paper's Challenge ① asks
// for: given an application's workload characteristics and an occupancy
// requirement, it searches the (N, m) design space, discards variants that
// cannot reach the required load factor (Fig. 2's constraint), measures the
// survivors with the performance engine, and returns them ranked by lookup
// throughput.

// AdviseRequest describes the application workload to advise on.
type AdviseRequest struct {
	Params Params // Arch, KeyBits/ValBits, TableBytes, Pattern, HitRate, Queries, Seed
	// MinLoadFactor is the occupancy the application needs (e.g. 0.9).
	// Variants whose empirical maximum load factor falls below it are
	// excluded before any performance measurement.
	MinLoadFactor float64
}

// Recommendation is one viable design with its measured performance.
type Recommendation struct {
	Layout       cuckoo.Layout
	MaxLF        float64     // empirical maximum load factor of the variant
	Best         Measurement // highest-throughput variant (SIMD or scalar)
	Speedup      float64
	BestIsScalar bool
}

// String summarizes the recommendation.
func (r Recommendation) String() string {
	design := r.Best.Choice.String()
	if r.BestIsScalar {
		design = "scalar"
	}
	return fmt.Sprintf("%s via %s: %.1f M lookups/s/core (%.2fx over scalar, max LF %.2f)",
		r.Layout, design, r.Best.LookupsPerSec/1e6, r.Speedup, r.MaxLF)
}

// Advise searches the design space (DesignGrid) and returns recommendations
// ranked by best lookup throughput. Both bucket arrangements (interleaved
// and split) are considered for bucketized layouts. req.Params is taken as
// Run takes it, with N, M, Split and LoadFactor set per variant; a bad
// field fails before any table is filled. Each variant's Run reports to
// req.Params.Obs under its own "config" scope, e.g. "advise (2,4) split".
func Advise(req AdviseRequest) ([]Recommendation, error) {
	p := req.Params
	if !(req.MinLoadFactor > 0 && req.MinLoadFactor <= 1) {
		return nil, fmt.Errorf("core: MinLoadFactor %v outside (0,1]", req.MinLoadFactor)
	}
	p.LoadFactor = req.MinLoadFactor
	if _, err := p.resolve(); err != nil {
		return nil, err
	}

	var recs []Recommendation
	for _, nm := range DesignGrid() {
		maxLF, err := probeMaxLF(nm[0], nm[1], p.KeyBits, p.ValBits, p.Seed)
		if err != nil {
			return nil, err
		}
		if maxLF < req.MinLoadFactor {
			continue // cannot satisfy the occupancy requirement (Fig. 2)
		}
		splits := []bool{false}
		if nm[1] > 1 {
			splits = []bool{false, true}
		}
		for _, split := range splits {
			rp := p
			rp.N, rp.M = nm[0], nm[1]
			rp.Split = split
			label := fmt.Sprintf("advise (%d,%d)", rp.N, rp.M)
			if split {
				label += " split"
			}
			rp.Obs = p.Obs.Scope("config", label)
			r, err := Run(rp)
			if err != nil {
				return nil, err
			}
			best := r.Scalar
			speedup := 1.0
			isScalar := true
			if b, ok := r.Best(); ok && b.LookupsPerSec > best.LookupsPerSec {
				best = b
				speedup = r.Speedup(b)
				isScalar = false
			}
			recs = append(recs, Recommendation{
				Layout:       r.Layout,
				MaxLF:        maxLF,
				Best:         best,
				Speedup:      speedup,
				BestIsScalar: isScalar,
			})
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: no (N,m) variant reaches load factor %.2f", req.MinLoadFactor)
	}
	sort.Slice(recs, func(i, j int) bool {
		return recs[i].Best.LookupsPerSec > recs[j].Best.LookupsPerSec
	})
	return recs, nil
}

// probeMaxLF measures a variant's achievable load factor on a small table
// (finite-size effects overshoot slightly, which only widens the candidate
// set; the full-size fill in Run then enforces the real constraint).
func probeMaxLF(n, m, keyBits, valBits int, seed int64) (float64, error) {
	bucketBits := 10
	if keyBits == 16 {
		bucketBits = 8 // keep the keyspace comfortably larger than the table
	}
	l := cuckoo.Layout{N: n, M: m, KeyBits: keyBits, ValBits: valBits, BucketBits: bucketBits}
	if err := l.Validate(); err != nil {
		return 0, err
	}
	t, err := cuckoo.New(mem.NewAddressSpace(), l, seed)
	if err != nil {
		return 0, err
	}
	_, lf := t.FillRandom(1.0, rand.New(rand.NewSource(seed+int64(n*100+m))))
	return lf, nil
}
