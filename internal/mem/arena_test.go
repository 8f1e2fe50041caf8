package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestArenaReadWriteRoundTrip(t *testing.T) {
	a := NewArena(0x1000, 128)
	a.Write16(0, 0xBEEF)
	if got := a.Read16(0); got != 0xBEEF {
		t.Errorf("Read16 = %#x, want 0xBEEF", got)
	}
	a.Write32(4, 0xDEADBEEF)
	if got := a.Read32(4); got != 0xDEADBEEF {
		t.Errorf("Read32 = %#x, want 0xDEADBEEF", got)
	}
	a.Write64(8, 0x0123456789ABCDEF)
	if got := a.Read64(8); got != 0x0123456789ABCDEF {
		t.Errorf("Read64 = %#x, want 0x0123456789ABCDEF", got)
	}
}

func TestArenaLittleEndian(t *testing.T) {
	a := NewArena(0, 8)
	a.Write32(0, 0x04030201)
	b := a.Bytes(0, 4)
	for i, want := range []byte{1, 2, 3, 4} {
		if b[i] != want {
			t.Errorf("byte %d = %d, want %d", i, b[i], want)
		}
	}
}

func TestArenaGenericWidths(t *testing.T) {
	a := NewArena(0, 64)
	for _, bits := range []int{16, 32, 64} {
		v := uint64(0x1122334455667788) & func() uint64 {
			if bits == 64 {
				return ^uint64(0)
			}
			return (1 << bits) - 1
		}()
		a.WriteUint(0, bits, v)
		if got := a.ReadUint(0, bits); got != v {
			t.Errorf("ReadUint(%d bits) = %#x, want %#x", bits, got, v)
		}
	}
}

func TestArenaWriteUintTruncates(t *testing.T) {
	a := NewArena(0, 8)
	a.Write64(0, ^uint64(0))
	a.WriteUint(0, 16, 0x12345)
	if got := a.Read16(0); got != 0x2345 {
		t.Errorf("truncated write = %#x, want 0x2345", got)
	}
	// Neighboring bytes untouched.
	if got := a.Bytes(2, 1)[0]; got != 0xFF {
		t.Errorf("neighbor byte = %#x, want 0xFF", got)
	}
}

func TestArenaAddr(t *testing.T) {
	a := NewArena(0x4000, 16)
	if got := a.Addr(5); got != 0x4005 {
		t.Errorf("Addr(5) = %#x, want 0x4005", got)
	}
}

func TestArenaBoundsPanic(t *testing.T) {
	a := NewArena(0, 8)
	for name, fn := range map[string]func(){
		"read past end": func() { a.Read64(1) },
		"negative off":  func() { a.Read32(-1) },
		"bytes overrun": func() { a.Bytes(4, 5) },
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

func TestArenaZero(t *testing.T) {
	a := NewArena(0, 16)
	a.Write64(0, ^uint64(0))
	a.Zero()
	if got := a.Read64(0); got != 0 {
		t.Errorf("after Zero, Read64 = %#x", got)
	}
}

func TestAddressSpaceNoOverlap(t *testing.T) {
	s := NewAddressSpace()
	a := s.Alloc(100)
	b := s.Alloc(100)
	if a.Base()+uint64(a.Size()) > b.Base() {
		t.Errorf("arenas overlap: a=[%#x,%#x) b starts at %#x", a.Base(), a.Base()+uint64(a.Size()), b.Base())
	}
	if b.Base()%LineSize != 0 {
		t.Errorf("arena base %#x not line-aligned", b.Base())
	}
}

// TestReserveMatchesAlloc: Reserve places a range exactly where Alloc would
// place an arena of that size, so any interleaving of the two hands out the
// same bases as an address space that only allocates arenas.
func TestReserveMatchesAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		mixed, allocOnly := NewAddressSpace(), NewAddressSpace()
		for i := 0; i < 40; i++ {
			size := []int{0, 1, 63, 64, 65, 1 << 20, rng.Intn(5000)}[rng.Intn(7)]
			want := allocOnly.Alloc(size).Base()
			var got uint64
			if rng.Intn(2) == 0 {
				got = mixed.Reserve(size)
			} else {
				got = mixed.Alloc(size).Base()
			}
			if got != want {
				t.Fatalf("trial %d step %d: size %d at %#x, Alloc-only space places it at %#x", trial, i, size, got, want)
			}
			if got%LineSize != 0 {
				t.Fatalf("trial %d step %d: base %#x not line-aligned", trial, i, got)
			}
		}
	}
}

func TestAddressSpaceAvoidsLowMemory(t *testing.T) {
	a := NewAddressSpace().Alloc(8)
	if a.Base() == 0 {
		t.Error("arena base 0 would alias the empty-key sentinel space")
	}
}

func TestLineOf(t *testing.T) {
	cases := []struct{ addr, want uint64 }{
		{0, 0}, {63, 0}, {64, 64}, {65, 64}, {130, 128},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.want {
			t.Errorf("LineOf(%d) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestLinesTouched(t *testing.T) {
	cases := []struct {
		addr uint64
		size int
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 1},
		{0, 65, 2},
		{63, 2, 2},
		{60, 8, 2},
		{64, 64, 1},
		{1, 128, 3},
	}
	for _, c := range cases {
		if got := LinesTouched(c.addr, c.size); got != c.want {
			t.Errorf("LinesTouched(%d,%d) = %d, want %d", c.addr, c.size, got, c.want)
		}
	}
}

func TestLinesTouchedProperty(t *testing.T) {
	// Property: an access of size s touches between ceil(s/64) and
	// ceil(s/64)+1 lines, and every touched line overlaps the access.
	f := func(addr uint32, size uint8) bool {
		a, s := uint64(addr), int(size)
		if s == 0 {
			return LinesTouched(a, s) == 0
		}
		n := LinesTouched(a, s)
		min := (s + LineSize - 1) / LineSize
		return n >= min && n <= min+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
