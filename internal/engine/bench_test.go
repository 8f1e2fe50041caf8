package engine

import (
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/vec"
)

func BenchmarkChargeOp(b *testing.B) {
	e := New(arch.SkylakeClusterA(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Charge(arch.OpVecCmp, 512)
	}
}

func BenchmarkScalarLoad(b *testing.B) {
	e := New(arch.SkylakeClusterA(), 1)
	a := mem.NewAddressSpace().Alloc(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScalarLoad(a, (i*8)&0xFFF8, 32)
	}
}

func BenchmarkGather8Lanes(b *testing.B) {
	e := New(arch.SkylakeClusterA(), 1)
	a := mem.NewAddressSpace().Alloc(1 << 16)
	offs := []int{0, 512, 1024, 1536, 2048, 2560, 3072, 3584}
	mask := vec.LaneMaskAll(8)
	dst := make([]uint64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Gather(256, 32, a, offs, mask, dst)
	}
}
