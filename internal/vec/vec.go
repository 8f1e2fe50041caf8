// Package vec implements a software SIMD register file.
//
// Go exposes no AVX intrinsics, so this package provides lane-exact software
// equivalents of the SSE/AVX2/AVX-512 operations the paper's lookup
// templates use: broadcast (set1), packed compare-to-mask, blend, shifts,
// multiplies for vectorized hashing, and lane extraction for gathers. The
// operations here are purely functional — they compute lane values and
// masks. Cycle accounting lives in internal/engine, which wraps these ops
// and charges costs from the architecture model.
//
// A Vec holds 512 bits as eight little-endian 64-bit words plus an active
// width; narrower registers (128-/256-bit) use the low words and keep the
// rest zero. Lane widths of 16, 32 and 64 bits are supported, matching the
// paper's key/payload sizes. Every lane width divides 64, so a lane never
// straddles two words: lane access is a shift and a mask, a broadcast is
// one word pattern, and compares and bitwise ops work a word at a time.
package vec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// MaxBytes is the widest register size in bytes (AVX-512).
const MaxBytes = 64

// Vec is a SIMD register of 128, 256 or 512 bits. Byte j of the register is
// byte j%8 of word j/8, so lane i of laneBits-wide lanes sits at byte offset
// i*laneBits/8, little-endian, exactly as a vector load from memory sees it.
type Vec struct {
	bits int
	w    [MaxBytes / 8]uint64
}

// Mask is a per-lane predicate, lane i in bit i (like AVX-512 k-registers).
type Mask uint32

// Zero returns an all-zero register of the given width in bits.
func Zero(bits int) Vec {
	checkWidth(bits)
	return Vec{bits: bits}
}

// Bits returns the register width in bits.
func (v Vec) Bits() int { return v.bits }

// Bytes returns the register width in bytes.
func (v Vec) Bytes() int { return v.bits / 8 }

// NumLanes returns how many lanes of laneBits fit in the register.
func NumLanes(bits, laneBits int) int {
	checkWidth(bits)
	checkLane(laneBits)
	return bits / laneBits
}

// Lane extracts lane i, interpreting the register as laneBits-wide lanes.
func (v Vec) Lane(laneBits, i int) uint64 {
	if !validLane(v.bits, laneBits, i) {
		panic(laneError{v.bits, laneBits, i})
	}
	bit := i * laneBits
	return v.w[bit>>6] >> (bit & 63) & laneMask(laneBits)
}

// SetLane replaces lane i (laneBits-wide lanes) in place with the low
// laneBits of val. Register builders use it to fill a register without
// copying it once per lane.
func (v *Vec) SetLane(laneBits, i int, val uint64) {
	if !validLane(v.bits, laneBits, i) {
		panic(laneError{v.bits, laneBits, i})
	}
	// The lane mask is spelled out: a laneMask call would push SetLane past
	// the inlining budget.
	w, sh := i*laneBits>>6, i*laneBits&63
	v.w[w] ^= (v.w[w] ^ val<<sh) & (^uint64(0) >> (64 - laneBits) << sh)
}

// WithLane returns a copy of v with lane i replaced (laneBits-wide lanes);
// it is the value form of SetLane.
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func (v Vec) WithLane(laneBits, i int, val uint64) Vec {
	v.SetLane(laneBits, i, val)
	return v
}

// Set1 broadcasts val to every laneBits-wide lane of a bits-wide register
// (the _mm*_set1_epi* family).
func Set1(bits, laneBits int, val uint64) Vec {
	v := Zero(bits)
	checkLane(laneBits)
	p := broadcastWord(laneBits, val)
	for j := 0; j < bits/64; j++ {
		v.w[j] = p
	}
	return v
}

// FromLanes builds a register from explicit lane values; len(vals) must
// equal the lane count.
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func FromLanes(bits, laneBits int, vals []uint64) Vec {
	n := NumLanes(bits, laneBits)
	if len(vals) != n {
		panic(fmt.Sprintf("vec: FromLanes got %d values for %d lanes", len(vals), n))
	}
	v := Zero(bits)
	for i, val := range vals {
		v.SetLane(laneBits, i, val)
	}
	return v
}

// FromBytes builds a register from raw little-endian bytes (an unaligned
// vector load); len(data) must equal bits/8.
func FromBytes(bits int, data []byte) Vec {
	checkWidth(bits)
	if len(data) != bits/8 {
		panic(fmt.Sprintf("vec: FromBytes got %d bytes for a %d-bit register", len(data), bits))
	}
	v := Vec{bits: bits}
	for j := 0; j < bits/64; j++ {
		v.w[j] = binary.LittleEndian.Uint64(data[8*j:])
	}
	return v
}

// ToBytes returns a copy of the register's active bytes, little-endian.
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func (v Vec) ToBytes() []byte {
	out := make([]byte, v.bits/8)
	v.ToBytesInto(out)
	return out
}

// ToBytesInto copies the register's active bytes, little-endian, into dst
// and returns the byte count. It is the allocation-free variant of ToBytes
// for hot loops with a reusable buffer; dst must hold at least Bytes()
// bytes.
func (v Vec) ToBytesInto(dst []byte) int {
	n := v.bits / 8
	if len(dst) < n {
		panic(fmt.Sprintf("vec: ToBytesInto needs %d bytes, got %d", n, len(dst)))
	}
	for j := 0; j < n/8; j++ {
		binary.LittleEndian.PutUint64(dst[8*j:], v.w[j])
	}
	return n
}

// ToLanes returns all lane values.
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func (v Vec) ToLanes(laneBits int) []uint64 {
	out := make([]uint64, v.bits/laneBits)
	v.ToLanesInto(laneBits, out)
	return out
}

// ToLanesInto writes all lane values into dst and returns the lane count.
// It is the allocation-free variant of ToLanes; dst must hold at least
// NumLanes(Bits(), laneBits) values.
func (v Vec) ToLanesInto(laneBits int, dst []uint64) int {
	n := v.bits / laneBits
	if len(dst) < n {
		panic(fmt.Sprintf("vec: ToLanesInto needs %d lanes, got %d", n, len(dst)))
	}
	for i := 0; i < n; i++ {
		dst[i] = v.Lane(laneBits, i)
	}
	return n
}

// CmpEq compares lanes for equality and returns a mask with bit i set when
// lane i of a equals lane i of b (the _mm*_cmpeq_epi* family).
func CmpEq(laneBits int, a, b Vec) Mask {
	sameShape(a, b)
	checkLane(laneBits)
	lg := bits.TrailingZeros(uint(laneBits)) // log2 of the lane width
	perWord := 64 >> lg
	// high has the top bit of every lane set, low the other bits.
	high := broadcastWord(laneBits, 1<<(laneBits-1))
	low := ^high
	var m Mask
	for j := 0; j < a.bits/64; j++ {
		x := a.w[j] ^ b.w[j]
		if x == 0 {
			m |= Mask(1<<perWord-1) << (j * perWord)
			continue
		}
		// A lane's top bit of y is set iff the lane of x is non-zero: its
		// low bits plus low carry into the top bit but never past it.
		y := (x&low + low) | x
		for eq := ^y & high; eq != 0; eq &= eq - 1 {
			m |= 1 << (j*perWord + bits.TrailingZeros64(eq)>>lg)
		}
	}
	return m
}

// And computes the lanewise bitwise AND.
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func And(a, b Vec) Vec {
	sameShape(a, b)
	out := Vec{bits: a.bits}
	for j := 0; j < a.bits/64; j++ {
		out.w[j] = a.w[j] & b.w[j]
	}
	return out
}

// Add adds lanes modulo the lane width.
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func Add(laneBits int, a, b Vec) Vec {
	sameShape(a, b)
	out := Zero(a.bits)
	for i := 0; i < a.bits/laneBits; i++ {
		out.SetLane(laneBits, i, a.Lane(laneBits, i)+b.Lane(laneBits, i))
	}
	return out
}

// MulLo multiplies lanes keeping the low laneBits of each product (the
// _mm*_mullo_epi* family, the workhorse of vectorized multiply-shift
// hashing).
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func MulLo(laneBits int, a, b Vec) Vec {
	sameShape(a, b)
	out := Zero(a.bits)
	for i := 0; i < a.bits/laneBits; i++ {
		out.SetLane(laneBits, i, a.Lane(laneBits, i)*b.Lane(laneBits, i))
	}
	return out
}

// ShiftRight logically shifts every lane right by n bits.
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func ShiftRight(laneBits int, a Vec, n uint) Vec {
	out := Zero(a.bits)
	for i := 0; i < a.bits/laneBits; i++ {
		out.SetLane(laneBits, i, a.Lane(laneBits, i)>>n)
	}
	return out
}

// Xor computes the lanewise bitwise XOR.
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func Xor(a, b Vec) Vec {
	sameShape(a, b)
	out := Vec{bits: a.bits}
	for j := 0; j < a.bits/64; j++ {
		out.w[j] = a.w[j] ^ b.w[j]
	}
	return out
}

// Blend selects lane i from a when mask bit i is clear and from b when set
// (the _mm*_blendv / masked-move family).
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func Blend(laneBits int, mask Mask, a, b Vec) Vec {
	sameShape(a, b)
	out := Zero(a.bits)
	for i := 0; i < a.bits/laneBits; i++ {
		if mask.Test(i) {
			out.SetLane(laneBits, i, b.Lane(laneBits, i))
		} else {
			out.SetLane(laneBits, i, a.Lane(laneBits, i))
		}
	}
	return out
}

// Test reports whether mask bit i is set.
func (m Mask) Test(i int) bool { return m&(1<<i) != 0 }

// Count returns the number of set bits (population count of the k-mask).
//
//lint:ignore reachlint ISA op driven by property tests: the lane-exact reference the vec tests check
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// FirstSet returns the lowest set bit index, or -1 when empty.
func (m Mask) FirstSet() int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros32(uint32(m))
}

// None reports whether no bit is set.
func (m Mask) None() bool { return m == 0 }

// LaneMaskAll returns the mask with the first n bits set.
func LaneMaskAll(n int) Mask {
	if n < 0 || n > 32 {
		panic(fmt.Sprintf("vec: mask width %d out of range", n))
	}
	if n == 32 {
		return Mask(0xFFFFFFFF)
	}
	return Mask(1<<n) - 1
}

// laneMask returns the low laneBits set; callers have checked laneBits.
func laneMask(laneBits int) uint64 { return ^uint64(0) >> (64 - laneBits) }

// broadcastWord returns the 64-bit word whose every laneBits-wide lane holds
// the low laneBits of val; callers have checked laneBits.
func broadcastWord(laneBits int, val uint64) uint64 {
	p := val & laneMask(laneBits)
	for l := laneBits; l < 64; l *= 2 {
		p |= p << l
	}
	return p
}

func checkWidth(bits int) {
	switch bits {
	case 128, 256, 512:
	default:
		panic(fmt.Sprintf("vec: unsupported register width %d bits", bits))
	}
}

func checkLane(laneBits int) {
	switch laneBits {
	case 16, 32, 64:
	default:
		panic(fmt.Sprintf("vec: unsupported lane width %d bits", laneBits))
	}
}

// validLane reports whether laneBits is a legal lane width and lane i of it
// lies in a bits-wide register.
func validLane(bits, laneBits, i int) bool {
	return (laneBits == 16 || laneBits == 32 || laneBits == 64) && uint(i) < uint(bits) && i*laneBits < bits
}

// laneError is the panic value of a lane access with an illegal lane width
// or index. Panicking with a value whose message is formatted only when
// printed keeps Lane and SetLane small enough to inline.
type laneError struct{ bits, laneBits, i int }

func (e laneError) Error() string {
	if e.laneBits != 16 && e.laneBits != 32 && e.laneBits != 64 {
		return fmt.Sprintf("vec: unsupported lane width %d bits", e.laneBits)
	}
	return fmt.Sprintf("vec: lane %d out of %d", e.i, e.bits/e.laneBits)
}

func sameShape(a, b Vec) {
	if a.bits != b.bits {
		panic(fmt.Sprintf("vec: width mismatch %d vs %d", a.bits, b.bits))
	}
}
