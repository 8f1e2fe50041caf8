// Package workload generates the key streams the benchmark queries with —
// the paper's second basic design dimension (workload data access pattern).
//
// Two read-only patterns are built in, matching Section IV-A:
//
//   - Uniform: every stored key is equally likely (network packet
//     processing, CuckooSwitch/DPDK-style workloads).
//   - Skewed: a Zipfian distribution over the stored keys with the
//     mutilate/YCSB default exponent 0.99, emulating the Facebook-trace
//     access pattern of key-value stores like Memcached.
//
// The generators also mix in a configurable miss fraction ("hit rate" /
// selectivity in the paper): stored keys are even, generated misses are odd,
// so a miss is guaranteed never to be found without any lookup table.
//
// New patterns plug in through the Generator interface (Section IV-D's
// pluggable workload generator).
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Pattern selects a built-in access pattern.
type Pattern int

const (
	// Uniform picks stored keys uniformly at random.
	Uniform Pattern = iota
	// Skewed picks stored keys Zipf-distributed by rank (mutilate-like).
	Skewed
)

// String returns the pattern name as the figures label it.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Skewed:
		return "skewed"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// ParsePattern returns the built-in pattern whose String is name, or an
// error for any other name.
func ParsePattern(name string) (Pattern, error) {
	for _, p := range []Pattern{Uniform, Skewed} {
		if p.String() == name {
			return p, nil
		}
	}
	return Uniform, fmt.Errorf("workload: unknown pattern %q (want uniform or skewed)", name)
}

// DefaultZipfTheta is the Zipfian exponent used by mutilate and YCSB.
const DefaultZipfTheta = 0.99

// Generator produces query keys; implementations must be deterministic for
// a fixed construction seed.
type Generator interface {
	// Next returns the next query key.
	Next() uint64
}

// Config describes a query stream over a set of stored keys.
type Config struct {
	Pattern Pattern // Skewed draws Zipf(DefaultZipfTheta) ranks
	HitRate float64 // fraction of queries that hit stored keys, [0,1]
	KeyBits int     // width of generated miss keys
	Seed    int64
}

// New builds a Generator over the stored keys for the given config.
func New(stored []uint64, cfg Config) (Generator, error) {
	if len(stored) == 0 {
		return nil, fmt.Errorf("workload: no stored keys")
	}
	if !(cfg.HitRate >= 0 && cfg.HitRate <= 1) {
		return nil, fmt.Errorf("workload: hit rate %v outside [0,1]", cfg.HitRate)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	miss := newMissGen(cfg.KeyBits, rng)
	switch cfg.Pattern {
	case Uniform:
		return &uniformGen{stored: stored, hit: cfg.HitRate, rng: rng, miss: miss}, nil
	case Skewed:
		z, err := NewZipf(len(stored), DefaultZipfTheta, rng)
		if err != nil {
			return nil, err
		}
		// Permute ranks so the hot keys are spread over the table instead of
		// clustering in insertion order.
		perm := rng.Perm(len(stored))
		return &skewedGen{stored: stored, perm: perm, zipf: z, hit: cfg.HitRate, rng: rng, miss: miss}, nil
	default:
		return nil, fmt.Errorf("workload: unknown pattern %v", cfg.Pattern)
	}
}

// Keys draws n keys from a generator.
func Keys(g Generator, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

type uniformGen struct {
	stored []uint64
	hit    float64
	rng    *rand.Rand
	miss   *missGen
}

func (u *uniformGen) Next() uint64 {
	if u.rng.Float64() >= u.hit {
		return u.miss.next()
	}
	return u.stored[u.rng.Intn(len(u.stored))]
}

type skewedGen struct {
	stored []uint64
	perm   []int
	zipf   *Zipf
	hit    float64
	rng    *rand.Rand
	miss   *missGen
}

func (s *skewedGen) Next() uint64 {
	if s.rng.Float64() >= s.hit {
		return s.miss.next()
	}
	return s.stored[s.perm[s.zipf.Next()]]
}

// missGen produces guaranteed-miss keys: odd keys never collide with the
// even stored keys produced by cuckoo.Table.FillRandom.
type missGen struct {
	bits int
	rng  *rand.Rand
}

func newMissGen(bits int, rng *rand.Rand) *missGen {
	switch bits {
	case 16, 32, 64:
	default:
		panic(fmt.Sprintf("workload: unsupported key width %d", bits))
	}
	return &missGen{bits: bits, rng: rng}
}

func (m *missGen) next() uint64 {
	mask := ^uint64(0)
	if m.bits < 64 {
		mask = (1 << m.bits) - 1
	}
	return (m.rng.Uint64() & mask) | 1
}

// Zipf samples ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta for
// theta in (0, 1]. This is the Gray et al. constant-time algorithm used by
// YCSB and mutilate; math/rand's Zipf requires s > 1 and cannot express the
// standard 0.99 exponent.
type Zipf struct {
	n            int
	alpha        float64
	zetan, eta   float64
	halfPowTheta float64
	rng          *rand.Rand
}

// NewZipf builds a Zipfian sampler over n ranks with the given exponent.
func NewZipf(n int, theta float64, rng *rand.Rand) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf over %d ranks", n)
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("workload: zipf theta %v outside (0,1)", theta)
	}
	zetan := zeta(n, theta)
	z := &Zipf{
		n:            n,
		alpha:        1.0 / (1.0 - theta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/zetan),
		halfPowTheta: 1.0 + math.Pow(0.5, theta),
		rng:          rng,
	}
	return z, nil
}

// Next samples a rank; rank 0 is the hottest key.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1.0, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}
