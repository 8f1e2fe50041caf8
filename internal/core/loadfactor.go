package core

import (
	"math/rand"

	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/mem"
)

// LoadFactorPoint is one bar of Fig. 2: the empirically achieved maximum
// load factor of an (N, m) cuckoo hash-table variant.
type LoadFactorPoint struct {
	N, M       int
	MaxLF      float64
	Bucketized bool
}

// LoadFactorStudy reproduces Fig. 2: for every requested (N, m) variant it
// builds a table and inserts random keys until the BFS eviction search
// fails, recording the achieved load factor. Results are averaged over
// `trials` independent tables.
func LoadFactorStudy(variants [][2]int, bucketBits, trials int, seed int64) ([]LoadFactorPoint, error) {
	points := make([]LoadFactorPoint, 0, len(variants))
	for _, nm := range variants {
		n, m := nm[0], nm[1]
		var sum float64
		for trial := 0; trial < trials; trial++ {
			l := cuckoo.Layout{N: n, M: m, KeyBits: 32, ValBits: 32, BucketBits: bucketBits}
			if err := l.Validate(); err != nil {
				return nil, err
			}
			space := mem.NewAddressSpace()
			t, err := cuckoo.New(space, l, seed+int64(trial)*7919+int64(n*100+m))
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed + int64(trial)))
			_, lf := t.FillRandom(1.0, rng) // fill to failure
			sum += lf
		}
		points = append(points, LoadFactorPoint{
			N: n, M: m,
			MaxLF:      sum / float64(trials),
			Bucketized: m > 1,
		})
	}
	return points, nil
}

// Fig2Variants is the (N, m) grid of Fig. 2: non-bucketized N-way tables
// (m=1, shown blue in the paper) and BCHT variants with 2/4/8 slots per
// bucket (yellow) for N = 2, 3, 4.
func Fig2Variants() [][2]int {
	var v [][2]int
	for _, n := range []int{2, 3, 4} {
		for _, m := range []int{1, 2, 4, 8} {
			v = append(v, [2]int{n, m})
		}
	}
	return v
}

// DesignGrid is the (N, m) design space of Listing 1 and Fig. 5 in the
// paper's order: the non-bucketized 2-, 3- and 4-way tables, then the
// (2, m) and (3, m) BCHTs. Advise searches it.
func DesignGrid() [][2]int {
	return [][2]int{{2, 1}, {3, 1}, {4, 1}, {2, 2}, {2, 4}, {2, 8}, {3, 2}, {3, 4}, {3, 8}}
}
