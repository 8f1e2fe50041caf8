package vec

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestVecSize pins the register at 72 bytes (eight words plus the width):
// templates pass registers by value, so a larger Vec costs every op.
func TestVecSize(t *testing.T) {
	if got := unsafe.Sizeof(Vec{}); got != 72 {
		t.Errorf("unsafe.Sizeof(Vec{}) = %d, want 72", got)
	}
}

func TestSet1AllLanes(t *testing.T) {
	for _, bits := range []int{128, 256, 512} {
		for _, lane := range []int{16, 32, 64} {
			v := Set1(bits, lane, 0xAB)
			for i := 0; i < bits/lane; i++ {
				if got := v.Lane(lane, i); got != 0xAB {
					t.Errorf("Set1(%d,%d) lane %d = %#x", bits, lane, i, got)
				}
			}
		}
	}
}

func TestSet1TruncatesToLane(t *testing.T) {
	v := Set1(128, 16, 0x12345)
	if got := v.Lane(16, 0); got != 0x2345 {
		t.Errorf("16-bit lane = %#x, want 0x2345", got)
	}
}

func TestWithLaneRoundTrip(t *testing.T) {
	v := Zero(256)
	v = v.WithLane(32, 3, 0xDEADBEEF)
	if got := v.Lane(32, 3); got != 0xDEADBEEF {
		t.Errorf("lane 3 = %#x", got)
	}
	// Neighbors untouched.
	if v.Lane(32, 2) != 0 || v.Lane(32, 4) != 0 {
		t.Error("WithLane disturbed neighboring lanes")
	}
}

func TestLaneByteLayoutMatchesLittleEndianMemory(t *testing.T) {
	// A vector loaded from memory must see lane i at byte offset i*laneBytes,
	// little-endian — this is what makes gathers and table loads agree.
	raw := make([]byte, 32)
	raw[4] = 0x78
	raw[5] = 0x56
	raw[6] = 0x34
	raw[7] = 0x12
	v := FromBytes(256, raw)
	if got := v.Lane(32, 1); got != 0x12345678 {
		t.Errorf("lane 1 = %#x, want 0x12345678", got)
	}
}

func TestFromLanesToLanes(t *testing.T) {
	in := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	v := FromLanes(256, 32, in)
	out := v.ToLanes(32)
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("lane %d = %d, want %d", i, out[i], in[i])
		}
	}
}

func TestToBytesRoundTrip(t *testing.T) {
	raw := make([]byte, 16)
	for i := range raw {
		raw[i] = byte(i * 3)
	}
	v := FromBytes(128, raw)
	got := v.ToBytes()
	for i := range raw {
		if got[i] != raw[i] {
			t.Errorf("byte %d = %d, want %d", i, got[i], raw[i])
		}
	}
}

func TestCmpEq(t *testing.T) {
	a := FromLanes(128, 32, []uint64{1, 2, 3, 4})
	b := FromLanes(128, 32, []uint64{1, 9, 3, 9})
	m := CmpEq(32, a, b)
	if m != 0b0101 {
		t.Errorf("mask = %b, want 0101", m)
	}
}

func TestCmpEqScalarEquivalence(t *testing.T) {
	// Property: CmpEq agrees with per-lane scalar comparison.
	f := func(av, bv [8]uint32, dup uint8) bool {
		as := make([]uint64, 8)
		bs := make([]uint64, 8)
		for i := range as {
			as[i] = uint64(av[i])
			bs[i] = uint64(bv[i])
			if dup&(1<<i) != 0 {
				bs[i] = as[i] // force some matches
			}
		}
		a := FromLanes(256, 32, as)
		b := FromLanes(256, 32, bs)
		m := CmpEq(32, a, b)
		for i := range as {
			if m.Test(i) != (as[i] == bs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithmeticScalarEquivalence(t *testing.T) {
	// Property: Add/MulLo/ShiftRight/Xor/And agree with scalar per-lane math
	// modulo the lane width.
	f := func(av, bv [4]uint64, shift uint8) bool {
		s := uint(shift % 32)
		a := FromLanes(256, 64, av[:])
		b := FromLanes(256, 64, bv[:])
		add := Add(64, a, b)
		mul := MulLo(64, a, b)
		shr := ShiftRight(64, a, s)
		xor := Xor(a, b)
		and := And(a, b)
		for i := 0; i < 4; i++ {
			if add.Lane(64, i) != av[i]+bv[i] {
				return false
			}
			if mul.Lane(64, i) != av[i]*bv[i] {
				return false
			}
			if shr.Lane(64, i) != av[i]>>s {
				return false
			}
			if xor.Lane(64, i) != av[i]^bv[i] {
				return false
			}
			if and.Lane(64, i) != av[i]&bv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulLoLaneTruncation(t *testing.T) {
	a := Set1(128, 32, 0xFFFFFFFF)
	b := Set1(128, 32, 2)
	got := MulLo(32, a, b).Lane(32, 0)
	if got != 0xFFFFFFFE {
		t.Errorf("MulLo 32-bit lane = %#x, want 0xFFFFFFFE", got)
	}
}

func TestBlend(t *testing.T) {
	a := Set1(128, 32, 1)
	b := Set1(128, 32, 2)
	out := Blend(32, 0b0110, a, b)
	want := []uint64{1, 2, 2, 1}
	for i, w := range want {
		if got := out.Lane(32, i); got != w {
			t.Errorf("blend lane %d = %d, want %d", i, got, w)
		}
	}
}

func TestMaskOps(t *testing.T) {
	m := Mask(0b10110)
	if m.Count() != 3 {
		t.Errorf("Count = %d", m.Count())
	}
	if m.FirstSet() != 1 {
		t.Errorf("FirstSet = %d", m.FirstSet())
	}
	if Mask(0).FirstSet() != -1 {
		t.Error("FirstSet of empty mask should be -1")
	}
	if !Mask(0).None() || m.None() {
		t.Error("None misbehaves")
	}
}

func TestLaneMaskAll(t *testing.T) {
	if LaneMaskAll(0) != 0 {
		t.Error("LaneMaskAll(0)")
	}
	if LaneMaskAll(4) != 0b1111 {
		t.Error("LaneMaskAll(4)")
	}
	if LaneMaskAll(32) != 0xFFFFFFFF {
		t.Error("LaneMaskAll(32)")
	}
}

func TestNumLanes(t *testing.T) {
	if NumLanes(512, 32) != 16 {
		t.Error("512/32 lanes")
	}
	if NumLanes(256, 64) != 4 {
		t.Error("256/64 lanes")
	}
	if NumLanes(128, 16) != 8 {
		t.Error("128/16 lanes")
	}
}

func TestInvalidWidthPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad register": func() { Zero(100) },
		"bad lane":     func() { Set1(128, 8, 1) },
		"mixed widths": func() { CmpEq(32, Zero(128), Zero(256)) },
		"lane index":   func() { Zero(128).Lane(32, 4) },
		"short bytes":  func() { FromBytes(256, make([]byte, 16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
