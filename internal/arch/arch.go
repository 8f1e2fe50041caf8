// Package arch defines the CPU architecture models the benchmark runs
// against.
//
// The paper evaluates on three HPC clusters: two Intel Skylake nodes
// (40-core Gold 6148 "Cluster A", 28-core "Cluster B") and one Intel Cascade
// Lake-SP node (48-core "Cluster C"). A Model captures everything the
// execution engine needs to reproduce their behaviour:
//
//   - supported SIMD widths (SSE 128, AVX2 256, AVX-512 512),
//   - per-license clock frequencies (Skylake down-clocks under heavy
//     AVX-512, which bounds Observation ③'s gains),
//   - cache geometry and latencies for the cache simulator,
//   - an instruction cost table (cycles per op class and width), and
//   - a memory-bandwidth contention factor for full-subscription runs.
//
// Cost-table values are reciprocal throughputs for long dependence-free
// sequences, in the spirit of Agner Fog's tables; they are calibrated so the
// relative shapes of the paper's figures emerge, not to mimic exact silicon.
package arch

import (
	"fmt"
	"sync"
)

// Vector widths in bits. Width 64 denotes the scalar datapath.
const (
	WidthScalar = 64
	WidthSSE    = 128
	WidthAVX2   = 256
	WidthAVX512 = 512
)

// SlotEmptyCheckCycles is the per-slot cost of testing a bucket slot for
// emptiness during the BFS eviction search: one dependent load-compare pair
// that the out-of-order window largely overlaps.
const SlotEmptyCheckCycles = 2.0

// OpClass enumerates the operation classes the execution engine charges.
type OpClass int

const (
	// Scalar ops.
	OpScalarALU        OpClass = iota // add/and/shift
	OpScalarMul                       // integer multiply (hashing)
	OpScalarCmp                       // compare
	OpScalarBranch                    // conditional branch (predicted-taken mix)
	OpScalarLoadOp                    // load issue (memory latency charged separately)
	OpScalarStoreOp                   // store issue
	OpBranchMispredict                // pipeline flush on an unpredictable branch
	OpFence                           // ordered/atomic load fence (optimistic locking)

	// Vector ops (cost may depend on width).
	OpVecSet1     // broadcast a scalar to all lanes
	OpVecLoad     // vector load issue (memory charged separately)
	OpVecStore    // vector store issue
	OpVecCmp      // packed compare → mask
	OpVecAnd      // packed logic
	OpVecAdd      // packed add
	OpVecMul      // packed multiply (vectorized hashing)
	OpVecShift    // packed shift
	OpVecShuffle  // shuffle/permute
	OpVecBlend    // blend/select
	OpVecMovemask // mask extraction
	OpVecReduce   // horizontal reduction to find the matching payload
	OpVecGather   // gather issue cost (per-line cost charged via cache)
	OpVecGatherLn // additional fixed cost per gathered lane
	OpVecCompress // compress/expand for selective (masked) gathers
)

// opNames maps each OpClass to its display name, indexed by the dense iota
// values.
var opNames = [NumOpClasses]string{
	OpScalarALU: "scalar-alu", OpScalarMul: "scalar-mul", OpScalarCmp: "scalar-cmp",
	OpScalarBranch: "scalar-branch", OpScalarLoadOp: "scalar-load", OpScalarStoreOp: "scalar-store",
	OpBranchMispredict: "branch-mispredict", OpFence: "fence",
	OpVecSet1: "vec-set1", OpVecLoad: "vec-load", OpVecStore: "vec-store", OpVecCmp: "vec-cmp",
	OpVecAnd: "vec-and", OpVecAdd: "vec-add", OpVecMul: "vec-mul", OpVecShift: "vec-shift",
	OpVecShuffle: "vec-shuffle", OpVecBlend: "vec-blend", OpVecMovemask: "vec-movemask",
	OpVecReduce: "vec-reduce", OpVecGather: "vec-gather", OpVecGatherLn: "vec-gather-lane",
	OpVecCompress: "vec-compress",
}

// String returns a human-readable op-class name.
func (c OpClass) String() string {
	if uint(c) < uint(NumOpClasses) {
		return opNames[c]
	}
	//lint:ignore alloclint out-of-range fallback; every charged op uses a valid class served from opNames
	return fmt.Sprintf("opclass(%d)", int(c))
}

// CacheLevel describes one level of the on-chip hierarchy.
type CacheLevel struct {
	Name    string
	Size    int
	Assoc   int
	Latency float64
}

// Model is a CPU architecture.
type Model struct {
	Name  string
	Cores int // cores used in full-subscription mode

	// Frequencies in GHz by license level. Skylake runs heavy AVX-512 code
	// slower than scalar code; Cascade Lake narrows the gap.
	ScalarGHz float64
	AVX2GHz   float64
	AVX512GHz float64

	// Widths lists the supported vector widths in bits (ascending).
	Widths []int

	// GatherMaxLaneBits is the widest gather element the ISA supports (64 on
	// both Skylake and Cascade Lake). This is the hardware limit behind
	// Observation ②: key+payload pairs wider than this cannot be fetched
	// with a single packed gather.
	GatherMaxLaneBits int

	// GatherOverlap scales the per-line memory latency of gather lanes: a
	// gather issues all its lane fetches at once, so their latencies overlap
	// (memory-level parallelism), whereas a scalar probe chain is
	// load→compare→branch dependent. Contention excess (bandwidth
	// saturation) is not scaled — no amount of MLP hides a saturated
	// memory bus, which is why SIMD gains compress for out-of-cache tables
	// at full subscription (Fig. 6, Observation ③).
	GatherOverlap float64

	// Cache geometry, innermost first, plus DRAM latency in cycles.
	Caches      []CacheLevel
	DRAMLatency float64

	// MemContention scales the DRAM latency under full subscription:
	// penalty = 1 + MemContention*(cores-1)/cores. It models shared
	// memory-bandwidth saturation, which compresses SIMD gains for
	// out-of-cache tables (Fig. 6, Observation ③).
	MemContention float64

	// costs[op] = cost in cycles; vector ops may add widthExtra per 128-bit
	// chunk beyond the first to model wider-uop cracking.
	costs      map[OpClass]float64
	widthExtra map[OpClass]float64

	// tab is the dense resolution of costs/widthExtra (see CostTable),
	// built once on first use.
	tabOnce sync.Once
	tab     *CostTable
}

// Cost returns the charge, in cycles, for one op of class c at the given
// vector width in bits (use WidthScalar for scalar ops).
func (m *Model) Cost(c OpClass, width int) float64 {
	if cost, ok := m.CostTable().Lookup(c, width); ok {
		return cost
	}
	return m.costSlow(c, width)
}

// costSlow resolves a cost through the underlying maps — the original
// formulation the dense table is built from. It also serves widths beyond
// the table's tiers and produces the missing-class panic diagnostic.
func (m *Model) costSlow(c OpClass, width int) float64 {
	base, ok := m.costs[c]
	if !ok {
		panic(fmt.Sprintf("arch: %s has no cost for %v", m.Name, c))
	}
	if width <= WidthSSE {
		return base
	}
	extra := m.widthExtra[c]
	chunks := float64(width/WidthSSE - 1)
	return base + extra*chunks
}

// Frequency returns the licensed clock in GHz for code whose widest vector
// is the given width in bits.
func (m *Model) Frequency(maxWidth int) float64 {
	switch {
	case maxWidth >= WidthAVX512:
		return m.AVX512GHz
	case maxWidth >= WidthAVX2:
		return m.AVX2GHz
	default:
		return m.ScalarGHz
	}
}

// Supports reports whether the model supports vectors of the given width.
func (m *Model) Supports(width int) bool {
	for _, w := range m.Widths {
		if w == width {
			return true
		}
	}
	return false
}

// DRAMPenalty returns the contention multiplier applied to DRAM latency when
// `cores` processes share the node's memory system.
func (m *Model) DRAMPenalty(cores int) float64 {
	if cores <= 1 {
		return 1.0
	}
	if cores > m.Cores {
		cores = m.Cores
	}
	return 1.0 + m.MemContention*float64(cores-1)/float64(m.Cores)
}

// LastLevelCacheSize returns the size of the outermost cache in bytes.
func (m *Model) LastLevelCacheSize() int {
	if len(m.Caches) == 0 {
		return 0
	}
	return m.Caches[len(m.Caches)-1].Size
}

func (m *Model) String() string { return m.Name }

// skylakeCosts is the shared Skylake-generation cost table.
func skylakeCosts() (map[OpClass]float64, map[OpClass]float64) {
	costs := map[OpClass]float64{
		OpScalarALU:    0.5,
		OpScalarMul:    3.0,
		OpScalarCmp:    0.5,
		OpScalarBranch: 2.0, // dependent compare-and-branch chains serialize

		OpScalarLoadOp:     0.5,
		OpScalarStoreOp:    1.0,
		OpBranchMispredict: 15.0, // Skylake-class pipeline restart
		OpFence:            20.0, // load-ordering fence on the critical path

		OpVecSet1:     1.0,
		OpVecLoad:     0.5,
		OpVecStore:    1.0,
		OpVecCmp:      1.0,
		OpVecAnd:      0.5,
		OpVecAdd:      0.5,
		OpVecMul:      5.0,
		OpVecShift:    1.0,
		OpVecShuffle:  1.0,
		OpVecBlend:    1.0,
		OpVecMovemask: 2.0,
		OpVecReduce:   3.0,
		OpVecGather:   8.0, // issue/setup; per-line latency via cache sim
		OpVecGatherLn: 0.75,
		OpVecCompress: 2.0,
	}
	widthExtra := map[OpClass]float64{
		OpVecCmp: 0.1, OpVecShuffle: 0.3, OpVecBlend: 0.2, OpVecReduce: 0.8,
		OpVecGather: 1.5, OpVecMul: 0.5, OpVecCompress: 0.3,
	}
	return costs, widthExtra
}

// SkylakeClusterA models Cluster A: dual Intel Xeon Gold 6148 (2x20 cores),
// 192 GB DRAM. Per-core L2 is 1 MB; the shared L3 is 27.5 MB per socket.
func SkylakeClusterA() *Model {
	costs, extra := skylakeCosts()
	return &Model{
		Name:              "Intel Skylake (Cluster A, 40 cores)",
		Cores:             40,
		ScalarGHz:         2.4,
		AVX2GHz:           2.3,
		AVX512GHz:         2.1,
		Widths:            []int{WidthSSE, WidthAVX2, WidthAVX512},
		GatherMaxLaneBits: 64,
		GatherOverlap:     0.35,
		Caches: []CacheLevel{
			{Name: "L1D", Size: 32 << 10, Assoc: 8, Latency: 4},
			{Name: "L2", Size: 1 << 20, Assoc: 16, Latency: 12},
			{Name: "L3", Size: 27 << 20, Assoc: 11, Latency: 40},
		},
		DRAMLatency:   200,
		MemContention: 1.5,
		costs:         costs,
		widthExtra:    extra,
	}
}

// SkylakeClusterB models Cluster B: dual 14-core Skylake (28 cores),
// 128 GB DRAM, InfiniBand EDR. Used for the key-value-store validation.
func SkylakeClusterB() *Model {
	m := SkylakeClusterA()
	m.Name = "Intel Skylake (Cluster B, 28 cores)"
	m.Cores = 28
	m.Caches[2].Size = 19 << 20
	return m
}

// CascadeLake models Cluster C: dual 24-core Cascade Lake-SP (48 cores, 96
// hardware threads), 192 GB DRAM. Cascade Lake raises clocks across license
// levels, narrows the AVX-512 down-clock, and improves gather issue — which
// together produce the ~1.5x node-level gain of Case Study ④.
func CascadeLake() *Model {
	costs, extra := skylakeCosts()
	costs[OpVecGather] = 6.0   // improved gather issue
	costs[OpVecGatherLn] = 0.6 // improved per-lane overhead
	return &Model{
		Name:              "Intel Cascade Lake (Cluster C, 48 cores)",
		Cores:             48,
		ScalarGHz:         3.2,
		AVX2GHz:           3.1,
		AVX512GHz:         2.9,
		Widths:            []int{WidthSSE, WidthAVX2, WidthAVX512},
		GatherMaxLaneBits: 64,
		GatherOverlap:     0.30,
		Caches: []CacheLevel{
			{Name: "L1D", Size: 32 << 10, Assoc: 8, Latency: 4},
			{Name: "L2", Size: 1 << 20, Assoc: 16, Latency: 12},
			{Name: "L3", Size: 33 << 20, Assoc: 11, Latency: 38},
		},
		DRAMLatency:   190,
		MemContention: 1.3,
		costs:         costs,
		widthExtra:    extra,
	}
}

// IceLake models a 32-core Ice Lake-SP node — a generation past the paper's
// hardware. Relative to Cascade Lake it nearly eliminates the AVX-512
// down-clock (Sunny Cove's improved power management), enlarges the
// per-core L2 (1.25 MB), and further improves gather issue, which is
// exactly the hardware direction Observation ② asks for.
func IceLake() *Model {
	costs, extra := skylakeCosts()
	costs[OpVecGather] = 5.0
	costs[OpVecGatherLn] = 0.5
	return &Model{
		Name:              "Intel Ice Lake-SP (32 cores)",
		Cores:             32,
		ScalarGHz:         3.0,
		AVX2GHz:           3.0,
		AVX512GHz:         2.9, // near-parity licensing
		Widths:            []int{WidthSSE, WidthAVX2, WidthAVX512},
		GatherMaxLaneBits: 64,
		GatherOverlap:     0.28,
		Caches: []CacheLevel{
			{Name: "L1D", Size: 48 << 10, Assoc: 12, Latency: 5},
			{Name: "L2", Size: 1280 << 10, Assoc: 20, Latency: 13},
			{Name: "L3", Size: 48 << 20, Assoc: 12, Latency: 42},
		},
		DRAMLatency:   185,
		MemContention: 1.2,
		costs:         costs,
		widthExtra:    extra,
	}
}

// Zen2 models a 32-core AMD Rome node: no AVX-512 at all (the validation
// engine must therefore exclude every 512-bit design choice), strong AVX2
// with no license down-clock, but markedly slower gathers — Zen 2's
// vpgatherdd microcodes to scalar loads, which shifts the best design
// toward the horizontal approach.
func Zen2() *Model {
	costs, extra := skylakeCosts()
	costs[OpVecGather] = 18.0  // microcoded gather issue
	costs[OpVecGatherLn] = 3.0 // per-element scalar load uop
	return &Model{
		Name:              "AMD Zen 2 (Rome, 32 cores)",
		Cores:             32,
		ScalarGHz:         3.1,
		AVX2GHz:           3.1, // no vector license down-clock
		AVX512GHz:         3.1, // unused: no 512-bit support
		Widths:            []int{WidthSSE, WidthAVX2},
		GatherMaxLaneBits: 64,
		GatherOverlap:     0.65, // microcoded gathers overlap poorly
		Caches: []CacheLevel{
			{Name: "L1D", Size: 32 << 10, Assoc: 8, Latency: 4},
			{Name: "L2", Size: 512 << 10, Assoc: 8, Latency: 12},
			{Name: "L3", Size: 16 << 20, Assoc: 16, Latency: 39}, // per-CCX slice
		},
		DRAMLatency:   210,
		MemContention: 1.4,
		costs:         costs,
		widthExtra:    extra,
	}
}

// ByName looks up a built-in model by a short name used on command lines:
// "skylake-a", "skylake-b", "cascadelake", "icelake", or "zen2".
func ByName(name string) (*Model, error) {
	switch name {
	case "skylake-a", "skylake", "skx":
		return SkylakeClusterA(), nil
	case "skylake-b":
		return SkylakeClusterB(), nil
	case "cascadelake", "clx":
		return CascadeLake(), nil
	case "icelake", "icx":
		return IceLake(), nil
	case "zen2", "rome":
		return Zen2(), nil
	default:
		return nil, fmt.Errorf("arch: unknown model %q (want skylake-a, skylake-b, cascadelake, icelake, or zen2)", name)
	}
}
