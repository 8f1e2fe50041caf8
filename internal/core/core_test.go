package core

import (
	"math"
	"strings"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/workload"
)

func TestEnumerateChoicesListing1(t *testing.T) {
	// The validation engine must reproduce the design choices of the
	// paper's Listing 1 for (k,v) = (32,32) on Skylake.
	m := arch.SkylakeClusterA()
	layout := func(n, mm int) cuckoo.Layout {
		l, err := cuckoo.LayoutForBytes(n, mm, 32, 32, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	cases := []struct {
		n, m int
		want []Choice
	}{
		{2, 1, []Choice{
			{Approach: Vertical, Width: 256, KeysPerIter: 8},
			{Approach: Vertical, Width: 512, KeysPerIter: 16},
		}},
		{3, 1, []Choice{
			{Approach: Vertical, Width: 256, KeysPerIter: 8},
			{Approach: Vertical, Width: 512, KeysPerIter: 16},
		}},
		{2, 2, []Choice{
			{Approach: Horizontal, Width: 128, BucketsPerVec: 1},
			{Approach: Horizontal, Width: 256, BucketsPerVec: 2},
			{Approach: Horizontal, Width: 512, BucketsPerVec: 2},
		}},
		{2, 4, []Choice{
			{Approach: Horizontal, Width: 256, BucketsPerVec: 1},
			{Approach: Horizontal, Width: 512, BucketsPerVec: 2},
		}},
		{2, 8, []Choice{
			{Approach: Horizontal, Width: 512, BucketsPerVec: 1},
		}},
		{3, 8, []Choice{
			{Approach: Horizontal, Width: 512, BucketsPerVec: 1},
		}},
	}
	for _, c := range cases {
		got := EnumerateChoices(m, layout(c.n, c.m), nil, nil)
		if len(got) != len(c.want) {
			t.Errorf("(%d,%d): %d choices, want %d: %v", c.n, c.m, len(got), len(c.want), got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("(%d,%d)[%d] = %+v, want %+v", c.n, c.m, i, got[i], c.want[i])
			}
		}
	}
}

func TestEnumerateChoicesHybridOnRequest(t *testing.T) {
	m := arch.SkylakeClusterA()
	l, _ := cuckoo.LayoutForBytes(2, 2, 32, 32, 1<<20)
	def := EnumerateChoices(m, l, nil, nil)
	for _, c := range def {
		if c.Approach == VerticalHybrid {
			t.Error("hybrid emitted without being requested")
		}
	}
	hyb := EnumerateChoices(m, l, []int{512}, []Approach{VerticalHybrid})
	if len(hyb) != 1 || hyb[0].Approach != VerticalHybrid || hyb[0].KeysPerIter != 16 {
		t.Errorf("hybrid choices = %v", hyb)
	}
}

func TestEnumerateChoicesRespectsArchWidths(t *testing.T) {
	m := arch.SkylakeClusterA()
	m.Widths = []int{128, 256} // pretend no AVX-512
	l, _ := cuckoo.LayoutForBytes(2, 8, 32, 32, 1<<20)
	if got := EnumerateChoices(m, l, nil, nil); len(got) != 0 {
		t.Errorf("(2,8) bucket needs 512 bits; got %v", got)
	}
}

func TestFormatListing(t *testing.T) {
	m := arch.SkylakeClusterA()
	rows, err := ValidateGrid(m, [][2]int{{2, 4}, {3, 1}}, 32, 32, 1<<20, m.Widths)
	if err != nil {
		t.Fatal(err)
	}
	s := FormatListing(m, 32, 32, m.Widths, rows)
	for _, want := range []string{
		"*(k,v) = (32, 32)",
		"*(2,4) -> V-Hor, Opts: 256 bit - 1 bucket/vec",
		"*(3,1) -> V-Ver, Opts: 256 bit - 8 keys/it",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("listing missing %q:\n%s", want, s)
		}
	}
}

func TestChoiceString(t *testing.T) {
	h := Choice{Approach: Horizontal, Width: 256, BucketsPerVec: 2}
	if h.String() != "V-Hor 256 bit - 2 bucket/vec" {
		t.Errorf("hor string = %q", h)
	}
	v := Choice{Approach: Vertical, Width: 512, KeysPerIter: 16}
	if v.String() != "V-Ver 512 bit - 16 keys/it" {
		t.Errorf("ver string = %q", v)
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	r, err := Run(Params{
		Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 32, ValBits: 32,
		TableBytes: 256 << 10, LoadFactor: 0.85, HitRate: 0.9,
		Pattern: workload.Uniform, Queries: 1200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.AchievedLF < 0.84 || r.AchievedLF > 0.86 {
		t.Errorf("achieved LF %.3f, want ≈0.85", r.AchievedLF)
	}
	if r.Scalar.LookupsPerSec <= 0 {
		t.Error("scalar throughput missing")
	}
	// 90% hit rate ±3% over 1200 queries.
	frac := float64(r.Scalar.Hits) / 1200
	if frac < 0.86 || frac > 0.94 {
		t.Errorf("scalar hit fraction %.3f, want ≈0.9", frac)
	}
	if len(r.Vector) != 2 {
		t.Fatalf("expected 2 SIMD choices for (2,4), got %v", r.Vector)
	}
	// Every variant must agree on the hit count — they answer the same
	// queries over the same table.
	for _, v := range r.Vector {
		if v.Hits != r.Scalar.Hits {
			t.Errorf("%s found %d hits, scalar found %d", v.Choice, v.Hits, r.Scalar.Hits)
		}
	}
	best, ok := r.Best()
	if !ok {
		t.Fatal("no best measurement")
	}
	if r.Speedup(best) <= 0 {
		t.Error("speedup not computed")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		r, err := Run(Params{
			Arch: arch.SkylakeClusterA(), N: 3, M: 1, KeyBits: 32, ValBits: 32,
			TableBytes: 128 << 10, LoadFactor: 0.8, HitRate: 0.9,
			Pattern: workload.Skewed, Queries: 800, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Scalar.CyclesPerLookup != b.Scalar.CyclesPerLookup {
		t.Error("scalar cycles diverged across identical runs")
	}
	for i := range a.Vector {
		if a.Vector[i].CyclesPerLookup != b.Vector[i].CyclesPerLookup {
			t.Errorf("vector %d cycles diverged", i)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Params{}); err == nil {
		t.Error("empty params accepted")
	}
	if _, err := Run(Params{Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 32, ValBits: 32}); err == nil {
		t.Error("missing table size accepted")
	}
	// A NaN, negative or above-1 load factor and a NaN hit rate fail
	// before the fill, naming the field, in both entry points.
	for _, c := range []struct {
		lf, hit float64
		field   string
	}{
		{math.NaN(), 0.9, "LoadFactor"},
		{-0.5, 0.9, "LoadFactor"},
		{1.5, 0.9, "LoadFactor"},
		{0.9, math.NaN(), "HitRate"},
	} {
		p := Params{Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 32, ValBits: 32,
			TableBytes: 1 << 16, Queries: 100, LoadFactor: c.lf, HitRate: c.hit}
		_, err := Run(p)
		_, errMixed := RunMixed(p, 0.1)
		for _, err := range []error{err, errMixed} {
			if err == nil || !strings.Contains(err.Error(), "Params."+c.field) {
				t.Errorf("LoadFactor %v HitRate %v: error %v, want one naming Params.%s", c.lf, c.hit, err, c.field)
			}
		}
	}
}

func TestRegistryMatchesTableI(t *testing.T) {
	reg := Registry()
	if len(reg) != 8 {
		t.Fatalf("registry has %d entries, Table I lists 8", len(reg))
	}
	byName := map[string]RegistryEntry{}
	for _, e := range reg {
		byName[e.Name] = e
	}
	memc3, ok := byName["MemC3"]
	if !ok || memc3.SlotsPerBkt != 4 || memc3.KeyBytes != 1 || memc3.ValBytes != 8 || memc3.NWay != 2 {
		t.Errorf("MemC3 entry wrong: %+v", memc3)
	}
	dpdk, ok := byName["DPDK rte_hash"]
	if !ok || dpdk.SlotsPerBkt != 8 || dpdk.SIMD == "No" {
		t.Errorf("DPDK entry wrong: %+v", dpdk)
	}
}

func TestLoadFactorStudyShape(t *testing.T) {
	// Finite-size effects let tiny 2-way tables exceed the asymptotic 0.5
	// threshold, so use a reasonably large table (2^12 buckets).
	points, err := LoadFactorStudy([][2]int{{2, 1}, {3, 1}, {2, 4}}, 12, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	lf := map[[2]int]float64{}
	for _, p := range points {
		lf[[2]int{p.N, p.M}] = p.MaxLF
	}
	if lf[[2]int{2, 1}] > 0.6 || lf[[2]int{2, 1}] < 0.4 {
		t.Errorf("2-way LF %.2f too high", lf[[2]int{2, 1}])
	}
	if lf[[2]int{3, 1}] < 0.85 {
		t.Errorf("3-way LF %.2f too low", lf[[2]int{3, 1}])
	}
	if lf[[2]int{2, 4}] < 0.9 {
		t.Errorf("(2,4) LF %.2f too low", lf[[2]int{2, 4}])
	}
}

func TestFig2Variants(t *testing.T) {
	v := Fig2Variants()
	if len(v) != 12 {
		t.Errorf("expected 12 variants (3 N x 4 m), got %d", len(v))
	}
}

func TestHybridRunMatchesCaseStudy5(t *testing.T) {
	// Vertical on a (2,2) BCHT must work through the performance engine
	// and be slower than on the (2,1) table but faster than scalar.
	base, err := Run(Params{
		Arch: arch.SkylakeClusterA(), N: 2, M: 1, KeyBits: 32, ValBits: 32,
		TableBytes: 256 << 10, LoadFactor: 0.5, HitRate: 0.9,
		Pattern: workload.Uniform, Queries: 1000, Seed: 2,
		Widths: []int{512}, Approaches: []Approach{Vertical},
	})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Run(Params{
		Arch: arch.SkylakeClusterA(), N: 2, M: 2, KeyBits: 32, ValBits: 32,
		TableBytes: 256 << 10, LoadFactor: 0.5, HitRate: 0.9,
		Pattern: workload.Uniform, Queries: 1000, Seed: 2,
		Widths: []int{512}, Approaches: []Approach{VerticalHybrid},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := base.Best()
	h, _ := hyb.Best()
	if h.LookupsPerSec >= b.LookupsPerSec {
		t.Errorf("hybrid (%.1f M/s) should trail pure vertical (%.1f M/s)",
			h.LookupsPerSec/1e6, b.LookupsPerSec/1e6)
	}
	if hyb.Speedup(h) <= 1.0 {
		t.Errorf("hybrid speedup %.2f should still beat scalar", hyb.Speedup(h))
	}
}

func TestRunMixedErodesSIMDAdvantage(t *testing.T) {
	speedup := func(uf float64) float64 {
		r, err := RunMixed(Params{
			Arch: arch.SkylakeClusterA(), N: 3, M: 1, KeyBits: 32, ValBits: 32,
			TableBytes: 256 << 10, LoadFactor: 0.85, HitRate: 0.9,
			Pattern: workload.Uniform, Queries: 1500, Seed: 4,
		}, uf)
		if err != nil {
			t.Fatal(err)
		}
		best, ok := r.Best()
		if !ok {
			t.Fatal("no SIMD choice")
		}
		return r.Speedup(best)
	}
	readOnly := speedup(0)
	mixed := speedup(0.3)
	if readOnly <= 1.0 {
		t.Fatalf("read-only SIMD speedup %.2f should exceed 1", readOnly)
	}
	if mixed >= readOnly {
		t.Errorf("30%% updates should erode the SIMD advantage: %.2f vs read-only %.2f", mixed, readOnly)
	}
}

func TestRunMixedValidation(t *testing.T) {
	p := Params{Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 32, ValBits: 32, TableBytes: 1 << 16}
	if _, err := RunMixed(p, 1.5); err == nil {
		t.Error("update fraction > 1 accepted")
	}
	// Every draw compared against NaN is false, so a NaN fraction would run
	// the read-only workload.
	if _, err := RunMixed(p, math.NaN()); err == nil {
		t.Error("NaN update fraction accepted")
	}
}

func TestRunMixedZeroFractionMatchesRun(t *testing.T) {
	// With no updates the mixed runner must agree with the plain runner.
	p := Params{
		Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 32, ValBits: 32,
		TableBytes: 128 << 10, LoadFactor: 0.8, HitRate: 0.9,
		Pattern: workload.Uniform, Queries: 800, Seed: 6,
	}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMixed(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scalar.Hits != b.Scalar.Hits {
		t.Errorf("hit counts diverge: %d vs %d", a.Scalar.Hits, b.Scalar.Hits)
	}
	if a.Scalar.CyclesPerLookup != b.Scalar.CyclesPerLookup {
		t.Errorf("scalar cycles diverge: %v vs %v", a.Scalar.CyclesPerLookup, b.Scalar.CyclesPerLookup)
	}
}

func TestRunWithTrace(t *testing.T) {
	// A trace-driven run must use exactly the supplied keys.
	trace := make([]uint64, 500)
	for i := range trace {
		trace[i] = uint64(i)*2 + 2 // even keys: may or may not be stored
	}
	r, err := Run(Params{
		Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 32, ValBits: 32,
		TableBytes: 64 << 10, LoadFactor: 0.5, HitRate: 0.9,
		Queries: 400, Warmup: 100, Seed: 3,
		Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scalar.LookupsPerSec <= 0 {
		t.Error("trace run produced no throughput")
	}
	// Determinism: the same trace gives identical cycles.
	r2, err := Run(Params{
		Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 32, ValBits: 32,
		TableBytes: 64 << 10, LoadFactor: 0.5, HitRate: 0.9,
		Queries: 400, Warmup: 100, Seed: 3,
		Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scalar.CyclesPerLookup != r2.Scalar.CyclesPerLookup {
		t.Error("trace replay not deterministic")
	}
}

func TestRunWithTraceRejectsWideKeys(t *testing.T) {
	if _, err := Run(Params{
		Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 16, ValBits: 32,
		TableBytes: 64 << 10, Queries: 100,
		Trace: []uint64{1 << 20},
	}); err == nil {
		t.Error("trace key wider than KeyBits accepted")
	}
}

func TestSelfTestPasses(t *testing.T) {
	checked, err := SelfTest(25, 42)
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Errorf("self-test only exercised %d combinations", checked)
	}
}

func TestAdviseRespectsLoadFactorConstraint(t *testing.T) {
	recs, err := Advise(AdviseRequest{
		Params: Params{
			Arch: arch.SkylakeClusterA(), KeyBits: 32, ValBits: 32,
			TableBytes: 256 << 10, HitRate: 0.9, Pattern: workload.Uniform,
			Queries: 600, Seed: 5,
		},
		MinLoadFactor: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	for _, r := range recs {
		// The 2-way non-bucketized variant (max LF ~0.5) must be excluded.
		if r.Layout.N == 2 && r.Layout.M == 1 {
			t.Errorf("(2,1) recommended despite LF constraint: %v", r)
		}
		if r.MaxLF < 0.9 {
			t.Errorf("recommendation below the LF floor: %v", r)
		}
	}
	// Ranked by throughput.
	for i := 1; i < len(recs); i++ {
		if recs[i].Best.LookupsPerSec > recs[i-1].Best.LookupsPerSec {
			t.Error("recommendations not sorted by throughput")
		}
	}
	// The paper's conclusion: the top pick at LF>=0.9 should be the 3-way
	// vertical design (or a close BCHT variant); it must beat scalar.
	if recs[0].BestIsScalar {
		t.Errorf("top recommendation is scalar: %v", recs[0])
	}
	if recs[0].String() == "" {
		t.Error("empty recommendation string")
	}
}

func TestAdviseLowLoadFactorAllowsTwoWay(t *testing.T) {
	recs, err := Advise(AdviseRequest{
		Params: Params{
			Arch: arch.SkylakeClusterA(), KeyBits: 32, ValBits: 32,
			TableBytes: 256 << 10, HitRate: 0.9, Pattern: workload.Uniform,
			Queries: 600, Seed: 5,
		},
		MinLoadFactor: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	found21 := false
	for _, r := range recs {
		if r.Layout.N == 2 && r.Layout.M == 1 {
			found21 = true
		}
	}
	if !found21 {
		t.Error("(2,1) should qualify at LF 0.4 (and per Observation 1, lead)")
	}
}

func TestAdviseValidation(t *testing.T) {
	if _, err := Advise(AdviseRequest{MinLoadFactor: 0}); err == nil {
		t.Error("zero load factor accepted")
	}
	if _, err := Advise(AdviseRequest{
		Params:        Params{},
		MinLoadFactor: 0.9,
	}); err == nil {
		t.Error("missing arch accepted")
	}
	// A NaN occupancy is rejected by Advise itself, before any probe.
	_, err := Advise(AdviseRequest{
		Params: Params{
			Arch: arch.SkylakeClusterA(), KeyBits: 32, ValBits: 32,
			TableBytes: 1 << 16, Queries: 200, Seed: 1,
		},
		MinLoadFactor: math.NaN(),
	})
	if err == nil || !strings.Contains(err.Error(), "MinLoadFactor") {
		t.Errorf("NaN MinLoadFactor: got %v, want an error naming MinLoadFactor", err)
	}
}
