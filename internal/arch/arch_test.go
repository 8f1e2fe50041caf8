package arch

import (
	"slices"
	"testing"
)

func TestByName(t *testing.T) {
	for name, cores := range map[string]int{
		"skylake-a":   40,
		"skylake":     40,
		"skx":         40,
		"skylake-b":   28,
		"cascadelake": 48,
		"clx":         48,
	} {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m.Cores != cores {
			t.Errorf("%q cores = %d, want %d", name, m.Cores, cores)
		}
	}
	if _, err := ByName("itanium"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestFrequencyLicensing(t *testing.T) {
	m := SkylakeClusterA()
	if !(m.ScalarGHz >= m.AVX2GHz && m.AVX2GHz >= m.AVX512GHz) {
		t.Errorf("license frequencies not monotone: %v %v %v", m.ScalarGHz, m.AVX2GHz, m.AVX512GHz)
	}
	if m.Frequency(WidthScalar) != m.ScalarGHz {
		t.Error("scalar license wrong")
	}
	if m.Frequency(WidthSSE) != m.ScalarGHz {
		t.Error("SSE shares the scalar license")
	}
	if m.Frequency(WidthAVX2) != m.AVX2GHz {
		t.Error("AVX2 license wrong")
	}
	if m.Frequency(WidthAVX512) != m.AVX512GHz {
		t.Error("AVX-512 license wrong")
	}
}

func TestCascadeLakeFasterThanSkylake(t *testing.T) {
	skx, clx := SkylakeClusterA(), CascadeLake()
	if clx.ScalarGHz <= skx.ScalarGHz || clx.AVX512GHz <= skx.AVX512GHz {
		t.Error("Cascade Lake must clock higher (Case Study 4)")
	}
	if clx.Cost(OpVecGather, 512) >= skx.Cost(OpVecGather, 512) {
		t.Error("Cascade Lake gathers should issue cheaper")
	}
}

func TestCostWidthScaling(t *testing.T) {
	m := SkylakeClusterA()
	c128 := m.Cost(OpVecGather, 128)
	c256 := m.Cost(OpVecGather, 256)
	c512 := m.Cost(OpVecGather, 512)
	if !(c128 <= c256 && c256 <= c512) {
		t.Errorf("gather cost not monotone in width: %v %v %v", c128, c256, c512)
	}
	// Scalar op costs ignore width.
	if m.Cost(OpScalarALU, WidthScalar) != m.Cost(OpScalarALU, WidthSSE) {
		t.Error("scalar cost should not scale with width")
	}
}

func TestCostUnknownOpPanics(t *testing.T) {
	m := SkylakeClusterA()
	defer func() {
		if recover() == nil {
			t.Error("unknown op class should panic")
		}
	}()
	m.Cost(OpClass(999), 128)
}

func TestSupportsAndMaxWidth(t *testing.T) {
	m := SkylakeClusterA()
	for _, w := range []int{128, 256, 512} {
		if !m.Supports(w) {
			t.Errorf("Skylake must support %d-bit vectors", w)
		}
	}
	if m.Supports(1024) {
		t.Error("1024-bit vectors claimed")
	}
	if w := slices.Max(m.Widths); w != 512 {
		t.Errorf("widest vector = %d", w)
	}
}

func TestDRAMPenaltyMonotone(t *testing.T) {
	m := SkylakeClusterA()
	if m.DRAMPenalty(1) != 1.0 {
		t.Error("single core must be uncontended")
	}
	prev := 1.0
	for _, cores := range []int{2, 10, 20, 40} {
		p := m.DRAMPenalty(cores)
		if p <= prev {
			t.Errorf("penalty not increasing at %d cores: %v <= %v", cores, p, prev)
		}
		prev = p
	}
	// Beyond the node's core count the penalty saturates.
	if m.DRAMPenalty(80) != m.DRAMPenalty(40) {
		t.Error("penalty must saturate at the node's core count")
	}
}

func TestCacheGeometry(t *testing.T) {
	for _, m := range []*Model{SkylakeClusterA(), SkylakeClusterB(), CascadeLake()} {
		if len(m.Caches) != 3 {
			t.Fatalf("%s has %d cache levels", m.Name, len(m.Caches))
		}
		prevSize := 0
		prevLat := 0.0
		for _, c := range m.Caches {
			if c.Size <= prevSize {
				t.Errorf("%s: %s size %d not larger than inner level", m.Name, c.Name, c.Size)
			}
			if c.Latency <= prevLat {
				t.Errorf("%s: %s latency %v not larger than inner level", m.Name, c.Name, c.Latency)
			}
			prevSize, prevLat = c.Size, c.Latency
		}
		if m.DRAMLatency <= prevLat {
			t.Errorf("%s: DRAM latency %v not beyond L3", m.Name, m.DRAMLatency)
		}
		if m.LastLevelCacheSize() != m.Caches[2].Size {
			t.Errorf("%s: LastLevelCacheSize mismatch", m.Name)
		}
	}
}

func TestClusterBIsSmallerSkylake(t *testing.T) {
	a, b := SkylakeClusterA(), SkylakeClusterB()
	if b.Cores >= a.Cores {
		t.Error("Cluster B has 28 cores vs Cluster A's 40")
	}
	if b.LastLevelCacheSize() >= a.LastLevelCacheSize() {
		t.Error("Cluster B's L3 is smaller")
	}
	if b.ScalarGHz != a.ScalarGHz {
		t.Error("both clusters are Skylake-generation parts")
	}
}

func TestGatherOverlapInUnitRange(t *testing.T) {
	for _, m := range []*Model{SkylakeClusterA(), CascadeLake()} {
		if m.GatherOverlap <= 0 || m.GatherOverlap >= 1 {
			t.Errorf("%s GatherOverlap %v outside (0,1)", m.Name, m.GatherOverlap)
		}
		if m.GatherMaxLaneBits != 64 {
			t.Errorf("%s gather element limit %d, hardware allows 64", m.Name, m.GatherMaxLaneBits)
		}
	}
}

func TestOpClassString(t *testing.T) {
	if OpVecGather.String() != "vec-gather" {
		t.Errorf("OpVecGather = %q", OpVecGather.String())
	}
	if OpClass(999).String() == "" {
		t.Error("unknown op class must still stringify")
	}
}

func TestModelString(t *testing.T) {
	if SkylakeClusterA().String() == "" {
		t.Error("empty model name")
	}
}

func TestIceLakeNarrowsAVX512Penalty(t *testing.T) {
	skx, icx := SkylakeClusterA(), IceLake()
	skxPenalty := skx.ScalarGHz / skx.AVX512GHz
	icxPenalty := icx.ScalarGHz / icx.AVX512GHz
	if icxPenalty >= skxPenalty {
		t.Errorf("Ice Lake license penalty %.3f should be below Skylake's %.3f", icxPenalty, skxPenalty)
	}
}

func TestZen2HasNoAVX512(t *testing.T) {
	z := Zen2()
	if z.Supports(WidthAVX512) {
		t.Fatal("Zen 2 must not support 512-bit vectors")
	}
	if w := slices.Max(z.Widths); w != WidthAVX2 {
		t.Errorf("Zen 2 max width = %d", w)
	}
	if z.Frequency(WidthAVX2) != z.ScalarGHz {
		t.Error("Zen 2 has no vector license down-clock")
	}
	// Microcoded gathers must be costlier than Intel's.
	if z.Cost(OpVecGather, 256) <= SkylakeClusterA().Cost(OpVecGather, 256) {
		t.Error("Zen 2 gather should be costlier than Skylake's")
	}
}

func TestByNameNewModels(t *testing.T) {
	for name, want := range map[string]int{"icelake": 32, "icx": 32, "zen2": 32, "rome": 32} {
		m, err := ByName(name)
		if err != nil || m.Cores != want {
			t.Errorf("ByName(%q) = %v, %v", name, m, err)
		}
	}
}
