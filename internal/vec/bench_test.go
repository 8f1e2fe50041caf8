package vec

import "testing"

func BenchmarkSet1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Set1(512, 32, uint64(i))
	}
}

func BenchmarkCmpEq512(b *testing.B) {
	x := Set1(512, 32, 7)
	y := Set1(512, 32, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CmpEq(32, x, y)
	}
}

func BenchmarkMulLo(b *testing.B) {
	x := Set1(512, 32, 0x9E3779B9)
	y := Set1(512, 32, 12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulLo(32, x, y)
	}
}

// sink keeps the benchmarked results live.
var sink uint64

func BenchmarkLane(b *testing.B) {
	x := FromLanes(512, 32, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	for i := 0; i < b.N; i++ {
		sink += x.Lane(32, i&15)
	}
}

func BenchmarkWithLane(b *testing.B) {
	x := Zero(512)
	for i := 0; i < b.N; i++ {
		x = x.WithLane(32, i&15, uint64(i))
	}
	sink += x.Lane(32, 0)
}

func BenchmarkFromBytes(b *testing.B) {
	raw := make([]byte, 64)
	for i := range raw {
		raw[i] = byte(i)
	}
	for i := 0; i < b.N; i++ {
		sink += FromBytes(512, raw).Lane(64, i&7)
	}
}
