// Package core implements SimdHT-Bench, the paper's primary contribution: a
// micro-benchmark suite for characterizing SIMD-aware cuckoo hash-table
// designs.
//
// The suite has the three modules of Fig. 4:
//
//   - Configurable input parameters (Params): hash-table layout and size,
//     key/payload widths, workload access pattern, and optionally the SIMD
//     vector widths and vectorization approaches to consider.
//   - The SIMD algorithm validation engine (Validate / EnumerateChoices):
//     determines which vector widths and vectorization approaches fit a
//     given layout and CPU, producing the design-choice list of Listing 1.
//   - The performance engine (Run): loads and queries the table for every
//     viable design choice, compares each SIMD variant against its scalar
//     equivalent, and reports per-core lookup throughput.
package core

import (
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/workload"
)

// Approach is a SIMD vectorization approach, the paper's first SIMD-aware
// design dimension (Section III-B).
type Approach int

const (
	// Horizontal probes all slots of a key's candidate bucket(s) with one
	// packed compare — a reduction per key (Fig. 3a, Algorithm 1).
	Horizontal Approach = iota
	// Vertical probes a different key per SIMD lane — w keys per iteration
	// (Fig. 3b, Algorithm 2). Valid on non-bucketized (m=1) layouts.
	Vertical
	// VerticalHybrid runs the vertical template over a bucketized layout by
	// looping over the m slots with selective gathers (Case Study ⑤).
	VerticalHybrid
)

// String names the approach as the paper abbreviates it.
func (a Approach) String() string {
	switch a {
	case Horizontal:
		return "V-Hor"
	case Vertical:
		return "V-Ver"
	case VerticalHybrid:
		return "V-Ver/BCHT"
	default:
		return fmt.Sprintf("approach(%d)", int(a))
	}
}

// Choice is one viable SIMD-aware design: an approach at a vector width,
// with the derived per-iteration parallelism.
type Choice struct {
	Approach      Approach
	Width         int // vector width in bits
	BucketsPerVec int // horizontal: buckets probed per vector
	KeysPerIter   int // vertical: keys probed per iteration (SIMD width w)
}

// String renders the choice in the style of Listing 1, e.g.
// "V-Hor 256 bit - 2 bucket/vec" or "V-Ver 512 bit - 16 keys/it".
func (c Choice) String() string {
	switch c.Approach {
	case Horizontal:
		return fmt.Sprintf("%s %d bit - %d bucket/vec", c.Approach, c.Width, c.BucketsPerVec)
	default:
		return fmt.Sprintf("%s %d bit - %d keys/it", c.Approach, c.Width, c.KeysPerIter)
	}
}

// Params is the configurable input interface of SimdHT-Bench (Fig. 4 ①).
type Params struct {
	// Arch is the CPU model to evaluate on.
	Arch *arch.Model

	// Layout: N-way hashing with M slots per bucket ((N,1) = non-bucketized
	// N-way cuckoo HT) over KeyBits/ValBits-wide fields. Split selects the
	// split-bucket arrangement (contiguous key block per bucket), which
	// admits keys-only horizontal probing at narrower vector widths.
	N, M    int
	KeyBits int
	ValBits int
	Split   bool

	// TableBytes is the target hash-table size; the layout rounds down to a
	// power-of-two bucket count.
	TableBytes int

	// LoadFactor is the fill target (fraction of slots occupied), in
	// (0,1]. Zero defaults to 0.9.
	LoadFactor float64

	// HitRate is the query selectivity: the fraction of queried keys
	// present in the table, in [0,1]. Zero defaults to 0.9.
	HitRate float64

	// Pattern and ZipfTheta configure the access distribution.
	Pattern   workload.Pattern
	ZipfTheta float64

	// Queries is the measured query count; Warmup queries run first,
	// uncharged, to warm the simulated caches. Zero Warmup defaults to
	// Queries/5.
	Queries int
	Warmup  int

	// Cores is the number of processes sharing the node (full-subscription
	// mode). Zero defaults to Arch.Cores.
	Cores int

	// Widths restricts the SIMD vector widths considered; empty means all
	// widths the architecture supports.
	Widths []int

	// Approaches restricts the vectorization approaches considered; empty
	// means the natural ones for the layout (Horizontal for m>1, Vertical
	// for m=1). VerticalHybrid must be requested explicitly.
	Approaches []Approach

	// Trace, when non-empty, replaces the generated query stream with a
	// recorded key trace (cycled to cover warm-up plus measurement). Keys
	// must fit KeyBits; hit behaviour follows whatever the trace contains.
	Trace []uint64

	// WithAMAC additionally measures the group-prefetching scalar baseline
	// (LookupAMACBatch) — an extension beyond the paper's scalar baseline.
	WithAMAC bool

	// Seed makes table fill and query generation deterministic.
	Seed int64

	// Obs, when non-nil, receives metrics and virtual-time trace spans for
	// every measured variant (scoped by variant name under this collector).
	// Attaching a collector never changes any measured value; nil is the
	// zero-overhead default.
	Obs *obs.Collector

	// Faults, when it configures pressure, injects transient insert
	// pressure into the measured window: every 256 measured queries a
	// burst of PressureItems ephemeral odd keys is inserted (charged — the
	// kick chains the spike forces cost cycles) and removed again. Each
	// variant draws from a fresh identically-seeded plan, so the injection
	// is deterministic and identical across variants. The zero Spec
	// changes nothing.
	Faults fault.Spec

	// FaultSeed seeds the fault plan; 0 falls back to Seed.
	FaultSeed int64

	// Heartbeat, when non-nil, ticks once per measured variant — periodic
	// stderr liveness output for long runs. Its output is wall-derived and
	// never lands in deterministic artifacts.
	Heartbeat *obs.Heartbeat

	// RecordSimSpeed additionally publishes each variant's simulator
	// throughput (simulated Mlookups per host second) as an obs gauge when
	// Obs is attached. Sim-speed is wall-clock-derived and nondeterministic,
	// so it is strictly opt-in: the default keeps metrics output (and every
	// golden artifact) free of host-timing values.
	RecordSimSpeed bool
}

// withDefaults returns a copy with zero fields resolved.
func (p Params) withDefaults() (Params, error) {
	if p.Arch == nil {
		return p, fmt.Errorf("core: Params.Arch is required")
	}
	if p.Queries <= 0 {
		p.Queries = 20000
	}
	if p.Warmup <= 0 {
		p.Warmup = p.Queries / 5
	}
	if p.Cores <= 0 {
		p.Cores = p.Arch.Cores
	}
	if p.LoadFactor == 0 {
		p.LoadFactor = 0.9
	}
	if !(p.LoadFactor > 0 && p.LoadFactor <= 1) {
		return p, fmt.Errorf("core: Params.LoadFactor %v outside (0,1]", p.LoadFactor)
	}
	if p.HitRate == 0 {
		p.HitRate = 0.9
	}
	if !(p.HitRate >= 0 && p.HitRate <= 1) {
		return p, fmt.Errorf("core: Params.HitRate %v outside [0,1]", p.HitRate)
	}
	if len(p.Widths) == 0 {
		p.Widths = p.Arch.Widths
	}
	if p.TableBytes <= 0 {
		return p, fmt.Errorf("core: Params.TableBytes is required")
	}
	if p.FaultSeed == 0 {
		p.FaultSeed = p.Seed
	}
	return p, nil
}
