package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// ETC models the size and popularity characteristics of Facebook's ETC
// Memcached pool, the workload the paper's introduction motivates with
// (refs [14][15]: a single page request fans out to hundreds of keys,
// batched into Multi-Gets). Distributions follow the SIGMETRICS'12
// characterization (Atikoglu et al.):
//
//   - key sizes cluster in the tens of bytes (16–250 B hard bounds),
//     modeled as a shifted generalized Pareto;
//   - value sizes are small but heavy-tailed (90% under 500 B with a long
//     tail), modeled as a generalized Pareto with the paper's parameters
//     (σ ≈ 214.5, ξ ≈ 0.348);
//   - key popularity is Zipfian, as in mutilate.
//
// The key-value-store harness uses ETC to size items realistically instead
// of the fixed 20 B/32 B memslap configuration.
type ETC struct {
	rng *rand.Rand

	// Bounds keep samples inside Memcached's limits and the slab classes.
	MinKeyLen, MaxKeyLen int
	MinValLen, MaxValLen int
}

// ETC generalized-Pareto parameters from the SIGMETRICS'12 study.
const (
	etcKeySigma = 12.0
	etcKeyXi    = 0.15
	etcKeyShift = 16

	etcValSigma = 214.476
	etcValXi    = 0.348456
	etcValShift = 2
)

// NewETC builds an ETC sampler with the study's default bounds.
func NewETC(seed int64) *ETC {
	return &ETC{
		rng:       rand.New(rand.NewSource(seed)),
		MinKeyLen: etcKeyShift,
		MaxKeyLen: 250, // Memcached's key limit
		MinValLen: 2,
		MaxValLen: 8000, // largest slab class in internal/kvs
	}
}

// KeyLen samples a key size in bytes.
func (e *ETC) KeyLen() int {
	v := etcKeyShift + generalizedPareto(e.rng, etcKeySigma, etcKeyXi)
	return clampInt(int(v), e.MinKeyLen, e.MaxKeyLen)
}

// ValLen samples a value size in bytes.
func (e *ETC) ValLen() int {
	v := etcValShift + generalizedPareto(e.rng, etcValSigma, etcValXi)
	return clampInt(int(v), e.MinValLen, e.MaxValLen)
}

// generalizedPareto samples GP(0, sigma, xi) by inverse transform:
// x = sigma * ((1-u)^(-xi) - 1) / xi.
func generalizedPareto(rng *rand.Rand, sigma, xi float64) float64 {
	u := rng.Float64()
	if u > 0.9999999 {
		u = 0.9999999 // bound the tail; the clamp handles the rest
	}
	if xi == 0 {
		return -sigma * math.Log(1-u)
	}
	return sigma * (math.Pow(1-u, -xi) - 1) / xi
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Item samples one object's size: its key size, then its value size. The
// aggregate statistics match the study: mean key ≈ 30–40 B, median value
// well under 500 B, heavy value tail.
func (e *ETC) Item() ETCItem {
	return ETCItem{KeyLen: e.KeyLen(), ValLen: e.ValLen()}
}

// ETCItem is one sampled object size.
type ETCItem struct {
	KeyLen, ValLen int
}

// String renders the item compactly for logs.
func (it ETCItem) String() string { return fmt.Sprintf("k%d/v%d", it.KeyLen, it.ValLen) }
