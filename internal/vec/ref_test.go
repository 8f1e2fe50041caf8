package vec

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refVec is the register model the package used before its word-backed
// form: a 64-byte buffer read and written one byte at a time. It is kept
// here, unoptimized, as the oracle FuzzVecMatchesReference holds Vec to.
type refVec struct {
	bits int
	b    [MaxBytes]byte
}

func refZero(bits int) refVec { return refVec{bits: bits} }

func (v refVec) lane(laneBits, i int) uint64 {
	off := i * laneBits / 8
	var out uint64
	for b := 0; b < laneBits/8; b++ {
		out |= uint64(v.b[off+b]) << (8 * b)
	}
	return out
}

func (v refVec) withLane(laneBits, i int, val uint64) refVec {
	off := i * laneBits / 8
	for b := 0; b < laneBits/8; b++ {
		v.b[off+b] = byte(val >> (8 * b))
	}
	return v
}

func refSet1(bits, laneBits int, val uint64) refVec {
	v := refZero(bits)
	for i := 0; i < bits/laneBits; i++ {
		v = v.withLane(laneBits, i, val)
	}
	return v
}

func refFromLanes(bits, laneBits int, vals []uint64) refVec {
	v := refZero(bits)
	for i, val := range vals {
		v = v.withLane(laneBits, i, val)
	}
	return v
}

func refFromBytes(bits int, data []byte) refVec {
	v := refVec{bits: bits}
	copy(v.b[:], data)
	return v
}

func (v refVec) toBytes() []byte { return append([]byte(nil), v.b[:v.bits/8]...) }

func refCmpEq(laneBits int, a, b refVec) Mask {
	var m Mask
	for i := 0; i < a.bits/laneBits; i++ {
		if a.lane(laneBits, i) == b.lane(laneBits, i) {
			m |= 1 << i
		}
	}
	return m
}

func refAnd(a, b refVec) refVec {
	out := refVec{bits: a.bits}
	for i := 0; i < a.bits/8; i++ {
		out.b[i] = a.b[i] & b.b[i]
	}
	return out
}

func refXor(a, b refVec) refVec {
	out := refVec{bits: a.bits}
	for i := 0; i < a.bits/8; i++ {
		out.b[i] = a.b[i] ^ b.b[i]
	}
	return out
}

func refLaneMask(laneBits int) uint64 {
	if laneBits == 64 {
		return ^uint64(0)
	}
	return (1 << laneBits) - 1
}

func refAdd(laneBits int, a, b refVec) refVec {
	out := refZero(a.bits)
	for i := 0; i < a.bits/laneBits; i++ {
		out = out.withLane(laneBits, i, (a.lane(laneBits, i)+b.lane(laneBits, i))&refLaneMask(laneBits))
	}
	return out
}

func refMulLo(laneBits int, a, b refVec) refVec {
	out := refZero(a.bits)
	for i := 0; i < a.bits/laneBits; i++ {
		out = out.withLane(laneBits, i, (a.lane(laneBits, i)*b.lane(laneBits, i))&refLaneMask(laneBits))
	}
	return out
}

func refShiftRight(laneBits int, a refVec, n uint) refVec {
	out := refZero(a.bits)
	for i := 0; i < a.bits/laneBits; i++ {
		out = out.withLane(laneBits, i, a.lane(laneBits, i)>>n)
	}
	return out
}

func refBlend(laneBits int, mask Mask, a, b refVec) refVec {
	out := refZero(a.bits)
	for i := 0; i < a.bits/laneBits; i++ {
		if mask&(1<<i) != 0 {
			out = out.withLane(laneBits, i, b.lane(laneBits, i))
		} else {
			out = out.withLane(laneBits, i, a.lane(laneBits, i))
		}
	}
	return out
}

func refCount(m Mask) int {
	n := 0
	for v := m; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func refFirstSet(m Mask) int {
	for i := 0; i < 32; i++ {
		if m&(1<<i) != 0 {
			return i
		}
	}
	return -1
}

// progReader decodes a fuzz input into op-sequence fields; an exhausted
// input reads as zeros.
type progReader struct{ data []byte }

func (r *progReader) done() bool { return len(r.data) == 0 }

func (r *progReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *progReader) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], r.data)
	r.data = r.data[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

func (r *progReader) bytes(n int) []byte {
	out := make([]byte, n)
	k := copy(out, r.data)
	r.data = r.data[k:]
	return out
}

// FuzzVecMatchesReference runs a random program over a four-register file
// twice, on Vec and on the byte-array refVec, and after every op compares
// the written register's byte image, its lanes at every lane size and the
// register itself against one rebuilt from the reference's bytes (which
// catches stale words beyond the active width), plus every compare mask
// with its Count and FirstSet. The first byte picks the register width;
// each op then reads its opcode, lane size, registers and operands.
func FuzzVecMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &progReader{data: prog}
		w := widths[int(r.byte())%len(widths)]
		var regs [4]Vec
		var refs [4]refVec
		for i := range regs {
			regs[i], refs[i] = Zero(w), refZero(w)
		}
		for step := 0; !r.done() && step < 256; step++ {
			op, lb := r.byte()%12, laneSizes[int(r.byte())%len(laneSizes)]
			d, a, b := r.byte()%4, r.byte()%4, r.byte()%4
			n := w / lb
			switch op {
			case 0:
				val := r.u64()
				regs[d], refs[d] = Set1(w, lb, val), refSet1(w, lb, val)
			case 1:
				raw := r.bytes(w / 8)
				regs[d], refs[d] = FromBytes(w, raw), refFromBytes(w, raw)
			case 2:
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = r.u64() // FromLanes keeps the low lb bits
				}
				regs[d], refs[d] = FromLanes(w, lb, vals), refFromLanes(w, lb, vals)
			case 3:
				i, val := int(r.byte())%n, r.u64()
				regs[d], refs[d] = regs[a].WithLane(lb, i, val), refs[a].withLane(lb, i, val)
			case 4:
				i, val := int(r.byte())%n, r.u64()
				regs[d].SetLane(lb, i, val)
				refs[d] = refs[d].withLane(lb, i, val)
			case 5:
				got, want := CmpEq(lb, regs[a], regs[b]), refCmpEq(lb, refs[a], refs[b])
				if got != want {
					t.Fatalf("step %d: CmpEq(%d) = %#x, reference %#x", step, lb, got, want)
				}
				if got.Count() != refCount(want) || got.FirstSet() != refFirstSet(want) {
					t.Fatalf("step %d: mask %#x Count/FirstSet = %d/%d, reference %d/%d",
						step, got, got.Count(), got.FirstSet(), refCount(want), refFirstSet(want))
				}
				continue
			case 6:
				regs[d], refs[d] = And(regs[a], regs[b]), refAnd(refs[a], refs[b])
			case 7:
				regs[d], refs[d] = Xor(regs[a], regs[b]), refXor(refs[a], refs[b])
			case 8:
				regs[d], refs[d] = Add(lb, regs[a], regs[b]), refAdd(lb, refs[a], refs[b])
			case 9:
				regs[d], refs[d] = MulLo(lb, regs[a], regs[b]), refMulLo(lb, refs[a], refs[b])
			case 10:
				s := uint(r.byte()) % 72 // shifts past the lane width clear it
				regs[d], refs[d] = ShiftRight(lb, regs[a], s), refShiftRight(lb, refs[a], s)
			case 11:
				m := Mask(binary.LittleEndian.Uint32(r.bytes(4))) & LaneMaskAll(n)
				regs[d], refs[d] = Blend(lb, m, regs[a], regs[b]), refBlend(lb, m, refs[a], refs[b])
			}
			checkMatchesRef(t, step, regs[d], refs[d])
		}
	})
}

// checkMatchesRef compares one register with its reference image.
func checkMatchesRef(t *testing.T, step int, v Vec, ref refVec) {
	t.Helper()
	want := ref.toBytes()
	if got := v.ToBytes(); v.Bits() != ref.bits || !bytes.Equal(got, want) {
		t.Fatalf("step %d: %d-bit register bytes %x, reference %d-bit %x", step, v.Bits(), got, ref.bits, want)
	}
	if v != FromBytes(ref.bits, want) {
		t.Fatalf("step %d: register %+v differs from one loaded from its bytes", step, v)
	}
	for _, lb := range laneSizes {
		for i := 0; i < ref.bits/lb; i++ {
			if got, want := v.Lane(lb, i), ref.lane(lb, i); got != want {
				t.Fatalf("step %d: %d-bit lane %d = %#x, reference %#x", step, lb, i, got, want)
			}
		}
	}
}
