package cache

import (
	"math/rand"
	"testing"
)

// benchHierarchy has Skylake cluster A's geometry (arch.SkylakeClusterA).
func benchHierarchy() *Hierarchy {
	return New(200,
		Config{Name: "L1D", Size: 32 << 10, Assoc: 8, Latency: 4},
		Config{Name: "L2", Size: 1 << 20, Assoc: 16, Latency: 12},
		Config{Name: "L3", Size: 27 << 20, Assoc: 11, Latency: 40},
	)
}

func BenchmarkAccessHit(b *testing.B) {
	h := benchHierarchy()
	h.Touch(0x1000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0x1000, 8)
	}
}

func BenchmarkAccessRandomWorkingSet(b *testing.B) {
	h := benchHierarchy()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(8<<20)) &^ 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&4095], 8)
	}
}

func BenchmarkTouchSweep(b *testing.B) {
	h := benchHierarchy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Touch(uint64(i%1024)*64, 64)
	}
}

var sinkHierarchy *Hierarchy

// BenchmarkNewHierarchy builds a Skylake-A hierarchy and warms a 1 MB range
// into it, about what one fleet server stores. A level's tags grow with its
// fullest set, so a new hierarchy holds none; its B/op is the host
// footprint of a hierarchy warmed with a fleet server's data.
func BenchmarkNewHierarchy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHierarchy = benchHierarchy()
		sinkHierarchy.Touch(1<<20, 1<<20)
	}
}

// BenchmarkWarmTable32MB builds a fresh Skylake-A hierarchy and touches a
// 32 MB table into it, the warm-up an engine gets before each measurement.
// The table overflows the 27 MB L3, so every level ends at full
// associativity and the B/op is a full hierarchy's host footprint.
func BenchmarkWarmTable32MB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHierarchy = benchHierarchy()
		sinkHierarchy.Touch(1<<20, 32<<20)
	}
}

// BenchmarkAccessRandom32MB charges 8-byte accesses at uniformly random
// addresses of a 32 MB region, beyond the 27 MB L3: nearly every access
// misses L1 and L2, and about a sixth go to DRAM once the L3 is full.
func BenchmarkAccessRandom32MB(b *testing.B) {
	h := benchHierarchy()
	x := uint64(1)
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // 64-bit LCG
		h.Access(1<<20+(x>>39)&^7, 8)                   // top 25 bits: 32 MB
	}
}
