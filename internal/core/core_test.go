package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/obs"
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

// validParams is a configuration Run accepts, stating every value it uses;
// the rejection tests change one field at a time.
func validParams() Params {
	return Params{Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 32, ValBits: 32,
		TableBytes: 1 << 16, LoadFactor: 0.9, HitRate: 0.9, Pattern: workload.Uniform,
		Queries: 100, Seed: 1}
}

// wantFieldError fails t unless err names Params.field.
func wantFieldError(t *testing.T, what string, err error, field string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "Params."+field) {
		t.Errorf("%s: error %v, want one naming Params.%s", what, err, field)
	}
}

func TestRunValidation(t *testing.T) {
	_, err := Run(Params{})
	wantFieldError(t, "empty params", err, "Arch")
	// Params are taken as written: a zero or negative count, a load factor
	// or rate outside its range (NaN included) and a negative core count
	// each fail before the fill, naming the field, read-only and with
	// updates alike.
	for _, c := range []struct {
		field string
		set   func(*Params)
	}{
		{"TableBytes", func(p *Params) { p.TableBytes = 0 }},
		{"Queries", func(p *Params) { p.Queries = 0 }},
		{"Queries", func(p *Params) { p.Queries = -5 }},
		{"LoadFactor", func(p *Params) { p.LoadFactor = 0 }},
		{"LoadFactor", func(p *Params) { p.LoadFactor = math.NaN() }},
		{"LoadFactor", func(p *Params) { p.LoadFactor = -0.5 }},
		{"LoadFactor", func(p *Params) { p.LoadFactor = 1.5 }},
		{"HitRate", func(p *Params) { p.HitRate = math.NaN() }},
		{"HitRate", func(p *Params) { p.HitRate = -0.1 }},
		{"HitRate", func(p *Params) { p.HitRate = 1.5 }},
		{"Cores", func(p *Params) { p.Cores = -3 }},
	} {
		for _, uf := range []float64{0, 0.1} {
			p := validParams()
			p.UpdateFraction = uf
			c.set(&p)
			_, err := Run(p)
			wantFieldError(t, fmt.Sprintf("%s case at update fraction %v", c.field, uf), err, c.field)
		}
	}
}

// TestRunHitRateZeroIsAllMiss: HitRate 0 is an all-miss stream, not a
// stand-in for the default 0.9.
func TestRunHitRateZeroIsAllMiss(t *testing.T) {
	p := validParams()
	p.HitRate, p.WithAMAC, p.Queries = 0, true, 400
	r, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range measurements(r) {
		if m.Hits != 0 {
			t.Errorf("%s: %d hits at HitRate 0, want 0", variantName(i, m), m.Hits)
		}
	}
	if len(r.Vector) == 0 {
		t.Error("no SIMD variant measured")
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
		r, err := Run(Params{
			Arch: arch.SkylakeClusterA(), N: 3, M: 1, KeyBits: 32, ValBits: 32,
			TableBytes: 256 << 10, LoadFactor: 0.85, HitRate: 0.9,
			Pattern: workload.Uniform, Queries: 1500, UpdateFraction: uf, Seed: 4,
		})
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
	// Every draw compared against NaN is false, so a NaN fraction would run
	// the read-only workload.
	for _, uf := range []float64{1.5, -0.1, math.NaN()} {
		p := validParams()
		p.UpdateFraction = uf
		_, err := Run(p)
		wantFieldError(t, fmt.Sprintf("update fraction %v", uf), err, "UpdateFraction")
	}
}

func TestRunMixedZeroFractionMatchesRun(t *testing.T) {
	// A positive update fraction too small to draw any update must agree
	// with the read-only run in every variant: the update draws come from
	// their own RNG, so they leave the lookup keys and batches unchanged.
	p := Params{
		Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 32, ValBits: 32,
		TableBytes: 128 << 10, LoadFactor: 0.8, HitRate: 0.9,
		Pattern: workload.Uniform, Queries: 800, Seed: 6,
	}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.UpdateFraction = math.SmallestNonzeroFloat64
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scalar.Hits != b.Scalar.Hits {
		t.Errorf("hit counts diverge: %d vs %d", a.Scalar.Hits, b.Scalar.Hits)
	}
	if a.Scalar.CyclesPerLookup != b.Scalar.CyclesPerLookup {
		t.Errorf("scalar cycles diverge: %v vs %v", a.Scalar.CyclesPerLookup, b.Scalar.CyclesPerLookup)
	}
	for i := range a.Vector {
		if a.Vector[i].CyclesPerLookup != b.Vector[i].CyclesPerLookup {
			t.Errorf("%s cycles diverge: %v vs %v", a.Vector[i].Choice, a.Vector[i].CyclesPerLookup, b.Vector[i].CyclesPerLookup)
		}
	}
}

// TestRunUpdatesWithTraceAndAMAC: updates combine with trace replay and the
// AMAC baseline. Lookups replay only trace keys, so a trace of absent (odd)
// keys finds nothing while the updates still cost cycles, and AMAC is
// measured over the same operation stream.
func TestRunUpdatesWithTraceAndAMAC(t *testing.T) {
	trace := make([]uint64, 300)
	for i := range trace {
		trace[i] = uint64(i)*2 + 1
	}
	run := func(uf float64) *Result {
		r, err := Run(Params{
			Arch: arch.SkylakeClusterA(), N: 3, M: 1, KeyBits: 32, ValBits: 32,
			TableBytes: 64 << 10, LoadFactor: 0.8, HitRate: 0.9,
			Queries: 600, UpdateFraction: uf, WithAMAC: true, Seed: 3,
			Trace: trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	readOnly, mixed := run(0), run(0.5)
	if mixed.AMAC == nil {
		t.Fatal("WithAMAC set but Result.AMAC is nil")
	}
	ro := measurements(readOnly)
	for i, m := range measurements(mixed) {
		if m.Hits != 0 {
			t.Errorf("%s: %d hits replaying absent trace keys, want 0", variantName(i, m), m.Hits)
		}
		if m.CyclesPerLookup == ro[i].CyclesPerLookup {
			t.Errorf("%s: updates cost no cycles (%.2f per op either way)", variantName(i, m), m.CyclesPerLookup)
		}
	}
}

// measurements lists a WithAMAC result's scalar, AMAC and SIMD measurements
// in that order.
func measurements(r *Result) []Measurement {
	return append([]Measurement{r.Scalar, *r.AMAC}, r.Vector...)
}

// variantName names measurements(r)[i].
func variantName(i int, m Measurement) string {
	switch i {
	case 0:
		return "scalar"
	case 1:
		return "amac"
	}
	return m.Choice.String()
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
		Queries: 400, Seed: 3,
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
		Queries: 400, Seed: 3,
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
	_, err := Run(Params{
		Arch: arch.SkylakeClusterA(), N: 2, M: 4, KeyBits: 16, ValBits: 32,
		TableBytes: 64 << 10, LoadFactor: 0.9, HitRate: 0.9, Queries: 100,
		Trace: []uint64{1 << 20},
	})
	if err == nil || !strings.Contains(err.Error(), "trace key") {
		t.Errorf("trace key wider than KeyBits: error %v, want one naming the trace key", err)
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
	_, err := Advise(AdviseRequest{MinLoadFactor: 0})
	if err == nil || !strings.Contains(err.Error(), "MinLoadFactor") {
		t.Errorf("zero load factor: got %v, want an error naming MinLoadFactor", err)
	}
	_, err = Advise(AdviseRequest{Params: Params{}, MinLoadFactor: 0.9})
	wantFieldError(t, "missing arch", err, "Arch")
	// A NaN occupancy is rejected by Advise itself, before any probe.
	params := Params{
		Arch: arch.SkylakeClusterA(), KeyBits: 32, ValBits: 32,
		TableBytes: 1 << 16, HitRate: 0.9, Queries: 200, Seed: 1,
	}
	_, err = Advise(AdviseRequest{Params: params, MinLoadFactor: math.NaN()})
	if err == nil || !strings.Contains(err.Error(), "MinLoadFactor") {
		t.Errorf("NaN MinLoadFactor: got %v, want an error naming MinLoadFactor", err)
	}
	// Queries 0 is not "use 3000": it fails, naming the field, before the
	// first variant's table is filled (an attached collector sees no run).
	params.Queries = 0
	params.Obs = obs.NewCollector()
	_, err = Advise(AdviseRequest{Params: params, MinLoadFactor: 0.9})
	wantFieldError(t, "zero queries", err, "Queries")
	if n := len(params.Obs.Registry.Snapshot()); n != 0 {
		t.Errorf("zero queries: %d metric series recorded before the rejection", n)
	}
}
