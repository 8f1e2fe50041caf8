package cache

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/mem"
)

func tiny() *Hierarchy {
	// 2-level: L1 = 1 KB 2-way (8 sets), L2 = 4 KB 4-way, DRAM 100cy.
	return New(100,
		Config{Name: "L1D", Size: 1 << 10, Assoc: 2, Latency: 4},
		Config{Name: "L2", Size: 4 << 10, Assoc: 4, Latency: 12},
	)
}

func TestColdMissThenHit(t *testing.T) {
	h := tiny()
	first := h.Access(0x1000, 8)
	if want := 4.0 + 12.0 + 100.0; first != want {
		t.Errorf("cold access latency = %v, want %v", first, want)
	}
	second := h.Access(0x1000, 8)
	if second != 4 {
		t.Errorf("L1 hit latency = %v, want 4", second)
	}
	st, _ := h.LevelStats("L1D")
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("L1 stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestSameLineSharing(t *testing.T) {
	h := tiny()
	h.Access(0x1000, 4)
	// Another word on the same 64B line must hit L1.
	if lat := h.Access(0x1020, 4); lat != 4 {
		t.Errorf("same-line access latency = %v, want 4", lat)
	}
}

func TestLineSplitAccessChargesTwoLines(t *testing.T) {
	h := tiny()
	lat := h.Access(0x103C, 8) // straddles 0x1000 and 0x1040 lines
	if want := 2 * (4.0 + 12.0 + 100.0); lat != want {
		t.Errorf("split access latency = %v, want %v", lat, want)
	}
	if h.DRAMAccesses() != 2 {
		t.Errorf("DRAM accesses = %d, want 2", h.DRAMAccesses())
	}
}

func TestLRUEviction(t *testing.T) {
	h := tiny()
	// L1: 8 sets × 2 ways; lines mapping to set 0 are 64-byte lines at
	// stride 8*64 = 512 bytes.
	a, b, c := uint64(0), uint64(512), uint64(1024)
	h.Access(a, 1)
	h.Access(b, 1)
	h.Access(c, 1) // evicts a from L1 (LRU)
	st, _ := h.LevelStats("L1D")
	missesBefore := st.Misses
	h.Access(a, 1) // must miss L1 (evicted), hit L2
	st, _ = h.LevelStats("L1D")
	if st.Misses != missesBefore+1 {
		t.Error("expected L1 miss after LRU eviction")
	}
	l2, _ := h.LevelStats("L2")
	if l2.Hits == 0 {
		t.Error("expected L2 hit for line evicted from L1 only")
	}
}

func TestLRURecencyUpdate(t *testing.T) {
	h := tiny()
	a, b, c := uint64(0), uint64(512), uint64(1024)
	h.Access(a, 1)
	h.Access(b, 1)
	h.Access(a, 1) // refresh a: b becomes LRU
	h.Access(c, 1) // evicts b, not a
	if lat := h.Access(a, 1); lat != 4 {
		t.Errorf("refreshed line latency = %v, want L1 hit (4)", lat)
	}
}

func TestWorkingSetLargerThanLevel(t *testing.T) {
	h := tiny()
	// Touch 2 KB of distinct lines (> 1 KB L1, < 4 KB L2), twice.
	for pass := 0; pass < 2; pass++ {
		for off := uint64(0); off < 2048; off += mem.LineSize {
			h.Access(off, 1)
		}
	}
	l1, _ := h.LevelStats("L1D")
	l2, _ := h.LevelStats("L2")
	if l1.HitRate() > 0.6 {
		t.Errorf("L1 hit rate %v suspiciously high for 2x working set", l1.HitRate())
	}
	if l2.Hits == 0 {
		t.Error("L2 should absorb the L1 overflow on the second pass")
	}
	if h.DRAMAccesses() != 32 {
		t.Errorf("DRAM accesses = %d, want 32 (cold lines only)", h.DRAMAccesses())
	}
}

func TestDRAMPenalty(t *testing.T) {
	h := tiny()
	h.DRAMPenalty = 2.0
	lat := h.Access(0x2000, 1)
	if want := 4.0 + 12.0 + 200.0; lat != want {
		t.Errorf("penalized cold access = %v, want %v", lat, want)
	}
}

func TestTouchWarmsWithoutLatency(t *testing.T) {
	h := tiny()
	h.Touch(0x3000, 8)
	if lat := h.Access(0x3000, 8); lat != 4 {
		t.Errorf("post-Touch access latency = %v, want 4", lat)
	}
}

func TestResetStatsKeepsLines(t *testing.T) {
	h := tiny()
	h.Access(0x4000, 8)
	h.ResetStats()
	if lat := h.Access(0x4000, 8); lat != 4 {
		t.Errorf("after ResetStats, access = %v, want L1 hit", lat)
	}
	st, _ := h.LevelStats("L1D")
	if st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

// TestResetClearsLines: every measurement builds its own hierarchy, and a
// new hierarchy shares no lines with an earlier one of the same shape.
func TestResetClearsLines(t *testing.T) {
	h := tiny()
	h.Access(0x4000, 8)
	if lat := tiny().Access(0x4000, 8); lat != 4+12+100 {
		t.Errorf("new hierarchy access = %v, want cold miss", lat)
	}
	if lat := h.Access(0x4000, 8); lat != 4 {
		t.Errorf("warm hierarchy access = %v, want L1 hit", lat)
	}
}

func TestStatsConservation(t *testing.T) {
	// Property: at every level, hits + misses of level i equals misses of
	// level i-1 (every L1 miss probes L2, etc.), and total accesses add up.
	h := tiny()
	rng := rand.New(rand.NewSource(42))
	n := 5000
	for i := 0; i < n; i++ {
		h.Access(uint64(rng.Intn(16<<10))&^7, 8)
	}
	l1, _ := h.LevelStats("L1D")
	l2, _ := h.LevelStats("L2")
	if l1.Hits+l1.Misses != uint64(n) {
		t.Errorf("L1 accesses = %d, want %d", l1.Hits+l1.Misses, n)
	}
	if l2.Hits+l2.Misses != l1.Misses {
		t.Errorf("L2 accesses = %d, want L1 misses %d", l2.Hits+l2.Misses, l1.Misses)
	}
	if h.DRAMAccesses() != l2.Misses {
		t.Errorf("DRAM accesses = %d, want L2 misses %d", h.DRAMAccesses(), l2.Misses)
	}
}

func TestLevels(t *testing.T) {
	h := tiny()
	names := h.Levels()
	if len(names) != 2 || names[0] != "L1D" || names[1] != "L2" {
		t.Errorf("Levels() = %v", names)
	}
	if _, ok := h.LevelStats("L9"); ok {
		t.Error("LevelStats should report missing levels")
	}
}

// TestSetIndexMatchesModulo checks the division-free set index against
// num % numSets on every level of every arch model (the Skylake and Cascade
// Lake L3s have 40,215, 28,299 and 49,152 sets) plus a one-set and a
// direct-mapped level, at the edges of the set count and of the 32-bit line
// range and at random line numbers.
func TestSetIndexMatchesModulo(t *testing.T) {
	cfgs := []Config{
		{Name: "one-set", Size: 4 * mem.LineSize, Assoc: 4},
		{Name: "direct", Size: 37 * mem.LineSize, Assoc: 1},
	}
	for _, m := range []*arch.Model{arch.SkylakeClusterA(), arch.SkylakeClusterB(), arch.CascadeLake(), arch.IceLake(), arch.Zen2()} {
		for _, c := range m.Caches {
			cfgs = append(cfgs, Config{Name: m.Name + " " + c.Name, Size: c.Size, Assoc: c.Assoc})
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range cfgs {
		l := newLevel(cfg)
		s := uint32(l.numSets)
		nums := []uint32{0, 1, s - 1, s, s + 1, math.MaxUint32}
		for i := 0; i < 10000; i++ {
			nums = append(nums, rng.Uint32())
		}
		for _, num := range nums {
			if got, want := l.setIndex(num), uint64(num)%l.numSets; got != want {
				t.Fatalf("%s (%d sets): setIndex(%d) = %d, want %d", cfg.Name, l.numSets, num, got, want)
			}
		}
	}
}

// mustPanic runs f and returns the message it panicked with.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// TestAddressBeyondTagRangePanics: a 32-bit line tag covers addresses below
// 256 GiB. The last line below it is an ordinary access; every entry point
// panics, naming the bound, on an address at or beyond it, including a
// Touch or Access range whose last byte crosses it.
func TestAddressBeyondTagRangePanics(t *testing.T) {
	const top = 256 << 30
	h := tiny()
	if lat := h.Access(top-mem.LineSize, 8); lat != 4+12+100 {
		t.Fatalf("last line below 256 GiB: latency %v, want a cold miss", lat)
	}
	for what, f := range map[string]func(){
		"Access":                 func() { h.Access(top, 8) },
		"Access crossing":        func() { h.Access(top-8, 16) },
		"AccessLineServed":       func() { h.AccessLineServed(top + 1<<30) },
		"AccessLineDetailServed": func() { h.AccessLineDetailServed(math.MaxUint64) },
		"Touch":                  func() { h.Touch(top, 1) },
		"Touch crossing":         func() { h.Touch(top-mem.LineSize, 2*mem.LineSize) },
	} {
		if msg := mustPanic(t, what, f); !strings.Contains(msg, "256 GiB") {
			t.Errorf("%s panicked with %q, want it to name the 256 GiB bound", what, msg)
		}
	}
}

// TestNewRejectsInvalidConfig: a level needs a positive size and 1–255 ways
// (a set's occupancy is one byte).
func TestNewRejectsInvalidConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "L1D", Size: 0, Assoc: 8},
		{Name: "L1D", Size: 32 << 10, Assoc: 0},
		{Name: "L1D", Size: 32 << 20, Assoc: 256},
	} {
		if msg := mustPanic(t, fmt.Sprintf("%+v", cfg), func() { New(100, cfg) }); !strings.Contains(msg, "invalid config") {
			t.Errorf("%+v panicked with %q", cfg, msg)
		}
	}
	New(100, Config{Name: "L1D", Size: 32 << 20, Assoc: 255})
}

// copyGeometry is a three-level hierarchy with power-of-two and
// multiply-high set counts (8, 5 and 37 sets).
func copyGeometry() *Hierarchy {
	return New(100,
		Config{Name: "L1D", Size: 8 * 2 * mem.LineSize, Assoc: 2, Latency: 4},
		Config{Name: "L2", Size: 5 * 4 * mem.LineSize, Assoc: 4, Latency: 12},
		Config{Name: "L3", Size: 37 * 8 * mem.LineSize, Assoc: 8, Latency: 40},
	)
}

// runProgram drives h with n random steps over lines [base, base+window):
// charged line and range accesses, Touch ranges up to twice the L3's
// capacity (in bulk while a level is at stride 0) and an occasional
// ResetStats. It returns every charged latency and serving level in order.
func runProgram(h *Hierarchy, rng *rand.Rand, base, window uint64, n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		addr := (base+uint64(rng.Int63n(int64(window))))*mem.LineSize + uint64(rng.Intn(mem.LineSize))
		switch op := rng.Intn(10); {
		case op < 5:
			c, s := h.AccessLineServed(addr)
			out = append(out, c, float64(s))
		case op < 7:
			out = append(out, h.Access(addr, 1+rng.Intn(200)))
		case op < 9:
			h.Touch(addr, 1+rng.Intn(2*37*8*mem.LineSize))
		default:
			h.ResetStats()
		}
	}
	return out
}

// sameState compares two hierarchies' simulated state: per level the
// stride, the resident lines of every set in recency order, the stats and
// the hot register, plus the DRAM count.
func sameState(got, want *Hierarchy) error {
	if got.dramAccess != want.dramAccess {
		return fmt.Errorf("DRAMAccesses %d, want %d", got.dramAccess, want.dramAccess)
	}
	for i, g := range got.levels {
		w := want.levels[i]
		if g.stats != w.stats || g.stride != w.stride || len(g.tags) != len(w.tags) || g.hotLine != w.hotLine {
			return fmt.Errorf("%s: stats %+v stride %d over %d tags hot %#x, want %+v stride %d over %d tags hot %#x",
				g.cfg.Name, g.stats, g.stride, len(g.tags), g.hotLine, w.stats, w.stride, len(w.tags), w.hotLine)
		}
		for s := uint64(0); s < g.numSets; s++ {
			gl := g.tags[s*uint64(g.stride):][:g.used[s]]
			wl := w.tags[s*uint64(w.stride):][:w.used[s]]
			if fmt.Sprint(gl) != fmt.Sprint(wl) {
				return fmt.Errorf("%s set %d: lines %v, want %v", g.cfg.Name, s, gl, wl)
			}
		}
	}
	return nil
}

// TestCopyFromMatchesReplay: a hierarchy that copies another's state ends
// in the state a replay of the source's program reaches, and behaves like
// that replay from then on. The destination is pristine, holds one line
// per level (stride 1), or has filled every level (stride assoc) and run
// its own program over other lines, so copies land on destinations at a
// narrower and at a wider stride than the source's, and a stale hot
// register, set or stride would show: the follow-up program starts with
// the lines the destination left hot.
func TestCopyFromMatchesReplay(t *testing.T) {
	const window = 3 * 37 * 8
	narrower, wider := 0, 0
	for trial := int64(0); trial < 30; trial++ {
		src, replay, dst := copyGeometry(), copyGeometry(), copyGeometry()
		if !dst.Pristine() {
			t.Fatal("a new hierarchy is not pristine")
		}
		steps := int(trial/3) * 10
		runProgram(src, rand.New(rand.NewSource(trial)), 1<<14, window, steps)
		runProgram(replay, rand.New(rand.NewSource(trial)), 1<<14, window, steps)
		switch trial % 3 {
		case 1:
			dst.AccessLineServed(1 << 16 * mem.LineSize)
		case 2:
			dst.Touch(1<<16*mem.LineSize, 2*window*mem.LineSize)
			runProgram(dst, rand.New(rand.NewSource(trial+100)), 1<<16, window, 50)
		}
		var stale []uint64
		for i, l := range dst.levels {
			if l.hotLine != hotLineNone {
				stale = append(stale, l.hotLine*mem.LineSize)
			}
			switch s := src.levels[i].stride; {
			case l.stride != 0 && l.stride < s:
				narrower++
			case l.stride > s:
				wider++
			}
		}
		dst.CopyFrom(src)
		if err := sameState(dst, replay); err != nil {
			t.Fatalf("trial %d: after CopyFrom: %v", trial, err)
		}
		if dst.Pristine() != (steps == 0) || src.Pristine() != (steps == 0) {
			t.Fatalf("trial %d: Pristine %v/%v after %d steps", trial, dst.Pristine(), src.Pristine(), steps)
		}
		for _, addr := range stale {
			gc, gs := dst.AccessLineServed(addr)
			wc, ws := replay.AccessLineServed(addr)
			if gc != wc || gs != ws {
				t.Fatalf("trial %d: stale hot line %#x: (%v, %d), replay (%v, %d)", trial, addr, gc, gs, wc, ws)
			}
		}
		got := runProgram(dst, rand.New(rand.NewSource(trial+200)), 1<<14, window, 300)
		want := runProgram(replay, rand.New(rand.NewSource(trial+200)), 1<<14, window, 300)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: latencies after CopyFrom diverge from the replay", trial)
		}
		if err := sameState(dst, replay); err != nil {
			t.Fatalf("trial %d: after the follow-up program: %v", trial, err)
		}
	}
	if narrower == 0 || wider == 0 {
		t.Fatalf("copied into %d levels at a narrower stride and %d at a wider one, want both", narrower, wider)
	}
}

// TestTagsScaleWithFullestSet: when no set of a level has held more than k
// lines, the level holds at most numSets·k tags, whether the lines came by
// bulk Touch, line-by-line Touch, charged access or CopyFrom. A Skylake-A
// hierarchy that has seen lines from a 4 MB range fills its L1 and L2 but
// holds at most two lines in any set of its 11-way L3.
func TestTagsScaleWithFullestSet(t *testing.T) {
	h := benchHierarchy()
	h.Touch(1<<20, 1<<20)
	h.Touch(3<<20, 64<<10)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		h.AccessLineServed(1<<20 + uint64(rng.Intn(4<<20)))
	}
	copied := benchHierarchy()
	copied.CopyFrom(h)
	for _, hh := range []*Hierarchy{h, copied} {
		for _, l := range hh.levels {
			k := 0
			for _, u := range l.used {
				k = max(k, int(u))
			}
			if uint64(len(l.tags)) > l.numSets*uint64(k) {
				t.Errorf("%s: %d tags, but no set of %d holds more than %d lines", l.cfg.Name, len(l.tags), l.numSets, k)
			}
			if l.cfg.Name == "L3" && k != 2 {
				t.Errorf("L3: the fullest set holds %d lines, want 2", k)
			}
		}
	}
}

// TestCopyFromMismatchPanics: copying between different geometries is a
// bug, so it panics instead of leaving a half-copied hierarchy.
func TestCopyFromMismatchPanics(t *testing.T) {
	other := New(100,
		Config{Name: "L1D", Size: 8 * 2 * mem.LineSize, Assoc: 2, Latency: 4},
		Config{Name: "L2", Size: 5 * 4 * mem.LineSize, Assoc: 2, Latency: 12},
		Config{Name: "L3", Size: 37 * 8 * mem.LineSize, Assoc: 8, Latency: 40},
	)
	if msg := mustPanic(t, "mismatched level", func() { copyGeometry().CopyFrom(other) }); !strings.Contains(msg, "CopyFrom") {
		t.Errorf("mismatched level panicked with %q", msg)
	}
	if msg := mustPanic(t, "level count", func() { copyGeometry().CopyFrom(tiny()) }); !strings.Contains(msg, "CopyFrom") {
		t.Errorf("level count mismatch panicked with %q", msg)
	}
}
