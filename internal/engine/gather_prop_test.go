package engine

import (
	"math/rand"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/vec"
)

// Property test for the masked gather: random offsets and masks across every
// width/lane-size combination the architecture admits, checked against plain
// scalar arena reads. Inactive lanes must come back zero, and the charging
// machinery must account cycles without perturbing the data path.
func TestPropGatherMatchesScalarReads(t *testing.T) {
	m := arch.SkylakeClusterA()
	for _, width := range []int{128, 256, 512} {
		for _, laneBits := range []int{16, 32, 64} {
			if laneBits > m.GatherMaxLaneBits {
				continue
			}
			rng := rand.New(rand.NewSource(int64(width + laneBits)))
			e := New(m, 1)
			space := mem.NewAddressSpace()
			arena := space.Alloc(1 << 12)
			laneBytes := laneBits / 8
			slots := arena.Size() / laneBytes
			for off := 0; off < arena.Size(); off += laneBytes {
				arena.WriteUint(off, laneBits, rng.Uint64())
			}

			lanes := vec.NumLanes(width, laneBits)
			for trial := 0; trial < 100; trial++ {
				offs := make([]int, lanes)
				for i := range offs {
					offs[i] = rng.Intn(slots) * laneBytes
				}
				mask := vec.Mask(rng.Uint32()) & vec.LaneMaskAll(lanes)
				switch trial {
				case 0:
					mask = 0 // fully inactive
				case 1:
					mask = vec.LaneMaskAll(lanes) // fully active
				case 2:
					// All lanes aliased to one address: distinct-line
					// accounting must still return every lane's value.
					for i := range offs {
						offs[i] = offs[0]
					}
					mask = vec.LaneMaskAll(lanes)
				}

				out := make([]uint64, lanes)
				for i := range out {
					out[i] = ^uint64(0) // stale lanes must be overwritten
				}
				e.Gather(width, laneBits, arena, offs, mask, out)
				for i := 0; i < lanes; i++ {
					want := uint64(0)
					if mask.Test(i) {
						want = arena.ReadUint(offs[i], laneBits)
					}
					if got := out[i]; got != want {
						t.Fatalf("w=%d lb=%d trial %d lane %d (mask %b): got %#x, want %#x",
							width, laneBits, trial, i, mask, got, want)
					}
				}
			}
			if e.Cycles() == 0 {
				t.Errorf("w=%d lb=%d: gathers charged no cycles", width, laneBits)
			}
		}
	}
}

// TestPropGatherChargingInvariance pins that SetCharging only affects the
// cost model, never the gathered values.
func TestPropGatherChargingInvariance(t *testing.T) {
	m := arch.SkylakeClusterA()
	rng := rand.New(rand.NewSource(11))
	space := mem.NewAddressSpace()
	arena := space.Alloc(1 << 10)
	for off := 0; off < arena.Size(); off += 4 {
		arena.WriteUint(off, 32, rng.Uint64())
	}
	lanes := vec.NumLanes(512, 32)
	offs := make([]int, lanes)
	for i := range offs {
		offs[i] = rng.Intn(arena.Size()/4) * 4
	}
	mask := vec.LaneMaskAll(lanes)

	charged := New(m, 1)
	free := New(m, 1)
	free.SetCharging(false)
	a, b := make([]uint64, lanes), make([]uint64, lanes)
	charged.Gather(512, 32, arena, offs, mask, a)
	free.Gather(512, 32, arena, offs, mask, b)
	for i := 0; i < lanes; i++ {
		if a[i] != b[i] {
			t.Fatalf("lane %d differs between charged and uncharged gather", i)
		}
	}
	if charged.Cycles() == 0 {
		t.Error("charged gather recorded no cycles")
	}
	if free.Cycles() != 0 {
		t.Errorf("uncharged gather recorded %.1f cycles", free.Cycles())
	}
}
