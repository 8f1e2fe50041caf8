package workload

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func storedKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 2 // even = stored
	}
	return keys
}

func TestUniformHitRate(t *testing.T) {
	g, err := New(storedKeys(1000), Config{Pattern: Uniform, HitRate: 0.9, KeyBits: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	n := 50000
	for i := 0; i < n; i++ {
		if g.Next()%2 == 0 {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.9) > 0.01 {
		t.Errorf("hit rate = %v, want ≈0.9", got)
	}
}

func TestMissKeysAreOdd(t *testing.T) {
	g, err := New(storedKeys(100), Config{Pattern: Uniform, HitRate: 0, KeyBits: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if k := g.Next(); k%2 == 0 {
			t.Fatalf("miss generator produced even key %d", k)
		}
	}
}

func TestUniformCoversKeys(t *testing.T) {
	stored := storedKeys(100)
	g, _ := New(stored, Config{Pattern: Uniform, HitRate: 1, KeyBits: 32, Seed: 3})
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		seen[g.Next()] = true
	}
	if len(seen) < 95 {
		t.Errorf("uniform generator covered only %d/100 keys", len(seen))
	}
}

func TestSkewedIsSkewed(t *testing.T) {
	stored := storedKeys(10000)
	g, err := New(stored, Config{Pattern: Skewed, HitRate: 1, KeyBits: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	n := 100000
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	// Zipf 0.99 over 10k keys: the hottest key draws a few percent of all
	// accesses; uniform would give 0.01%.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(n) < 0.01 {
		t.Errorf("hottest key got %.3f%% of accesses; not skewed", 100*float64(max)/float64(n))
	}
	// And the top 10% of keys must dominate.
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("accounting error: %d", total)
	}
}

func TestSkewedDeterministicAcrossRuns(t *testing.T) {
	mk := func() []uint64 {
		g, _ := New(storedKeys(500), Config{Pattern: Skewed, HitRate: 0.9, KeyBits: 32, Seed: 9})
		return Keys(g, 100)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the identical stream")
		}
	}
}

func TestZipfRankDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z, err := NewZipf(1000, 0.99, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 1000)
	n := 200000
	for i := 0; i < n; i++ {
		r := z.Next()
		if r < 0 || r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 must be the most frequent, and roughly 1/zeta(1000, .99) of
	// the mass (≈ 1/7.5).
	if counts[0] < counts[1] || counts[0] < counts[500] {
		t.Error("rank 0 not hottest")
	}
	frac := float64(counts[0]) / float64(n)
	if frac < 0.08 || frac > 0.2 {
		t.Errorf("rank-0 mass = %v, want ≈0.13", frac)
	}
	// Monotone-ish decay between decades.
	if counts[0] < counts[10] || counts[10] < counts[100] {
		t.Error("zipf mass not decaying across decades")
	}
}

// TestInvPowMatchesPow: every Zipf normalizer term equals 1/math.Pow bit
// for bit, for ranks up to 2^21 at exponents on each side of 0.5 and at
// 0.5 itself, and the normalizer over update-dram's 1,887,436 stored keys
// equals the math.Pow loop's sum.
func TestInvPowMatchesPow(t *testing.T) {
	for _, theta := range []float64{0.25, 0.5, 0.75, DefaultZipfTheta} {
		for i := 1; i <= 1<<21; i++ {
			x := float64(i)
			if got, want := invPow(x, theta), 1/math.Pow(x, theta); got != want {
				t.Fatalf("invPow(%d, %v) = %v, 1/math.Pow = %v", i, theta, got, want)
			}
		}
	}
	const n = 1887436
	var want float64
	for i := 1; i <= n; i++ {
		want += 1.0 / math.Pow(float64(i), DefaultZipfTheta)
	}
	if got := zeta(n, DefaultZipfTheta); got != want {
		t.Errorf("zeta(%d, %v) = %v, the math.Pow loop sums %v", n, DefaultZipfTheta, got, want)
	}
}

// TestPerm32MatchesPerm: perm32 holds rand.Perm's values and leaves the
// generator where rand.Perm does, and it rejects more ranks than an int32
// holds without allocating them.
func TestPerm32MatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000, 65537} {
		a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		got, err := perm32(n, a)
		if err != nil {
			t.Fatal(err)
		}
		want := b.Perm(n)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("n=%d: perm32[%d] = %d, rand.Perm = %d", n, i, got[i], want[i])
			}
		}
		if len(got) != n {
			t.Fatalf("n=%d: perm32 holds %d ranks", n, len(got))
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("n=%d: next draw %d after perm32, %d after rand.Perm", n, x, y)
		}
	}
	if _, err := perm32(math.MaxInt32+1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("perm32 accepted more ranks than an int32 holds")
	}
}

func TestZipfValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewZipf(0, 0.99, rng); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewZipf(10, 1.5, rng); err == nil {
		t.Error("theta > 1 accepted (use a different sampler for that regime)")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{Pattern: Uniform, KeyBits: 32}); err == nil {
		t.Error("empty key set accepted")
	}
	if _, err := New(storedKeys(10), Config{Pattern: Uniform, HitRate: 1.5, KeyBits: 32}); err == nil {
		t.Error("hit rate > 1 accepted")
	}
	if _, err := New(storedKeys(10), Config{Pattern: Uniform, HitRate: math.NaN(), KeyBits: 32}); err == nil {
		t.Error("NaN hit rate accepted")
	}
	if _, err := New(storedKeys(10), Config{Pattern: Pattern(99), KeyBits: 32}); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestPatternString(t *testing.T) {
	if Uniform.String() != "uniform" || Skewed.String() != "skewed" {
		t.Error("pattern names wrong")
	}
	for _, want := range []Pattern{Uniform, Skewed} {
		if got, err := ParsePattern(want.String()); got != want || err != nil {
			t.Errorf("ParsePattern(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := ParsePattern("zipf"); err == nil {
		t.Error(`ParsePattern("zipf") accepted an unknown pattern`)
	}
}

func TestKeysHelper(t *testing.T) {
	g, _ := New(storedKeys(10), Config{Pattern: Uniform, HitRate: 1, KeyBits: 32, Seed: 6})
	ks := Keys(g, 17)
	if len(ks) != 17 {
		t.Errorf("Keys returned %d", len(ks))
	}
}

func Test16BitMissKeysInRange(t *testing.T) {
	g, _ := New(storedKeys(10), Config{Pattern: Uniform, HitRate: 0, KeyBits: 16, Seed: 7})
	for i := 0; i < 1000; i++ {
		if k := g.Next(); k > 0xFFFF {
			t.Fatalf("16-bit miss key %#x out of range", k)
		}
	}
}

func TestETCKeySizes(t *testing.T) {
	etc := NewETC(1)
	var sum, n float64
	for i := 0; i < 20000; i++ {
		k := etc.KeyLen()
		if k < etc.MinKeyLen || k > etc.MaxKeyLen {
			t.Fatalf("key length %d out of bounds", k)
		}
		sum += float64(k)
		n++
	}
	mean := sum / n
	// The ETC study reports key sizes clustering in the tens of bytes.
	if mean < 20 || mean > 60 {
		t.Errorf("mean key length %.1f outside the ETC band", mean)
	}
}

func TestETCValueSizesHeavyTailed(t *testing.T) {
	etc := NewETC(2)
	vals := make([]int, 50000)
	under500 := 0
	maxV := 0
	var sum float64
	for i := range vals {
		v := etc.ValLen()
		if v < etc.MinValLen || v > etc.MaxValLen {
			t.Fatalf("value length %d out of bounds", v)
		}
		vals[i] = v
		if v < 500 {
			under500++
		}
		if v > maxV {
			maxV = v
		}
		sum += float64(v)
	}
	frac := float64(under500) / float64(len(vals))
	// The study: ~90% of ETC values are under 500 B, with a heavy tail.
	if frac < 0.75 || frac > 0.98 {
		t.Errorf("fraction under 500B = %.2f, want ≈0.9", frac)
	}
	if maxV < 2000 {
		t.Errorf("max value %d; the tail should reach multi-KB objects", maxV)
	}
	mean := sum / float64(len(vals))
	if mean < 100 || mean > 600 {
		t.Errorf("mean value size %.0f outside plausible ETC band", mean)
	}
}

func TestETCDeterministic(t *testing.T) {
	a, b := NewETC(7), NewETC(7)
	for i := 0; i < 100; i++ {
		if a.KeyLen() != b.KeyLen() || a.ValLen() != b.ValLen() {
			t.Fatal("same seed must reproduce the same sizes")
		}
	}
}

// TestETCItems: Item draws a key size, then a value size, from the
// sampler's one stream, as KeyLen and ValLen called in turn do.
func TestETCItems(t *testing.T) {
	a, b := NewETC(3), NewETC(3)
	for i := 0; i < 10; i++ {
		it := a.Item()
		if want := (ETCItem{KeyLen: b.KeyLen(), ValLen: b.ValLen()}); it != want {
			t.Fatalf("item %d is %v, want %v", i, it, want)
		}
		if it.String() == "" {
			t.Error("empty item string")
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, keys); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("read %d keys, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], keys[i])
		}
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewBufferString("not a trace at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewBufferString("SHTB")); err == nil {
		t.Error("truncated header accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	WriteTrace(&buf, []uint64{1, 2, 3})
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadTrace(bytes.NewBuffer(trunc)); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestTraceGeneratorCycles(t *testing.T) {
	g, err := NewTraceGenerator([]uint64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 20, 30, 10, 20}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("step %d = %d, want %d", i, got, w)
		}
	}
	if len(g.keys) != 3 {
		t.Errorf("trace holds %d keys, want 3", len(g.keys))
	}
	if _, err := NewTraceGenerator(nil); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestTraceCapturesGeneratorStream(t *testing.T) {
	// A recorded generator stream replays bit-identically.
	g, _ := New(storedKeys(200), Config{Pattern: Skewed, HitRate: 0.9, KeyBits: 32, Seed: 13})
	original := Keys(g, 1000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, original); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, _ := NewTraceGenerator(loaded)
	for i := 0; i < 1000; i++ {
		if replay.Next() != original[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}
