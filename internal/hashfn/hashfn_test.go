package hashfn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFamilyRange(t *testing.T) {
	f := NewFamily(3, 32, 10, 1)
	for k := uint64(1); k < 5000; k++ {
		for i := 0; i < 3; i++ {
			h := f.Hash(i, k)
			if h >= uint64(1<<f.bucketBits) {
				t.Fatalf("hash %d of key %d = %d out of %d buckets", i, k, h, 1<<f.bucketBits)
			}
		}
	}
}

func TestFamilyDeterministic(t *testing.T) {
	a := NewFamily(2, 32, 12, 7)
	b := NewFamily(2, 32, 12, 7)
	for k := uint64(1); k < 100; k++ {
		if a.Hash(0, k) != b.Hash(0, k) || a.Hash(1, k) != b.Hash(1, k) {
			t.Fatal("same seed must give identical families")
		}
	}
}

func TestFamilyFunctionsDiffer(t *testing.T) {
	f := NewFamily(2, 32, 12, 3)
	same := 0
	n := 10000
	for k := uint64(1); k <= uint64(n); k++ {
		if f.Hash(0, k) == f.Hash(1, k) {
			same++
		}
	}
	// Two independent functions into 4096 buckets should rarely agree.
	if float64(same)/float64(n) > 0.01 {
		t.Errorf("h0 == h1 for %d/%d keys; functions not independent", same, n)
	}
}

func TestFamilyUniformity(t *testing.T) {
	f := NewFamily(1, 32, 8, 11) // 256 buckets
	counts := make([]int, 1<<f.bucketBits)
	n := 256 * 200
	for k := 0; k < n; k++ {
		counts[f.Hash(0, uint64(k*2+2))]++
	}
	// Chi-squared against uniform; 255 dof, generous bound.
	expected := float64(n) / float64(len(counts))
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 2*255 {
		t.Errorf("chi2 = %v too high for uniform hashing", chi2)
	}
}

func TestFamilyMatchesMultiplyShiftFormula(t *testing.T) {
	// Property: Hash must equal the multiply-shift formula so that the
	// vectorized per-lane evaluation (MulLo + ShiftRight) reproduces it.
	f := NewFamily(4, 32, 14, 99)
	prop := func(k uint32, fi uint8) bool {
		i := int(fi) % 4
		key := uint64(k)
		want := ((key * f.mults[i]) & 0xFFFFFFFF) >> f.Shift()
		return f.Hash(i, key) == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFamily16Bit(t *testing.T) {
	f := NewFamily(2, 16, 12, 5)
	for k := uint64(1); k < 1<<16; k += 17 {
		if h := f.Hash(0, k); h >= 1<<12 {
			t.Fatalf("16-bit hash out of range: %d", h)
		}
	}
	if f.Shift() != 4 {
		t.Errorf("shift = %d, want 4", f.Shift())
	}
}

func TestFamily64Bit(t *testing.T) {
	f := NewFamily(3, 64, 20, 5)
	seen := map[uint64]bool{}
	for k := uint64(1); k < 2000; k++ {
		seen[f.Hash(0, k*0x100000001)] = true
	}
	if len(seen) < 1000 {
		t.Errorf("64-bit hash collapsed to %d distinct buckets", len(seen))
	}
}

// TestAllHashes: a family of N functions evaluates each of them in range,
// and the functions are distinct.
func TestAllHashes(t *testing.T) {
	f := NewFamily(3, 32, 10, 2)
	if len(f.mults) != 3 {
		t.Fatalf("family holds %d functions, want 3", len(f.mults))
	}
	seen := map[uint64]bool{}
	for i := range f.mults {
		if h := f.Hash(i, 42); h >= 1<<10 {
			t.Errorf("Hash(%d, 42) = %d out of 1024 buckets", i, h)
		}
		if seen[f.mults[i]] {
			t.Errorf("function %d repeats a multiplier", i)
		}
		seen[f.mults[i]] = true
	}
}

func TestMix64to32Distribution(t *testing.T) {
	// Sequential inputs must produce well-spread outputs: count bucket
	// collisions over the low 16 bits.
	buckets := make([]int, 1<<16)
	n := 1 << 18
	for i := 0; i < n; i++ {
		buckets[Mix64to32(uint64(i))&0xFFFF]++
	}
	expected := float64(n) / float64(len(buckets))
	var chi2 float64
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	dof := float64(len(buckets) - 1)
	if chi2 > dof+10*math.Sqrt(2*dof) {
		t.Errorf("chi2 = %v for %v dof; Mix64to32 poorly distributed", chi2, dof)
	}
}

func TestHashBytesDiffers(t *testing.T) {
	a := HashBytes([]byte("key-000001"))
	b := HashBytes([]byte("key-000002"))
	if a == b {
		t.Error("adjacent keys hash equal")
	}
	if HashBytes([]byte("key-000001")) != a {
		t.Error("HashBytes not deterministic")
	}
	if HashBytes(nil) == 0 {
		t.Error("empty hash should still mix the offset basis")
	}
}

func TestNewFamilyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad lane bits":    func() { NewFamily(2, 8, 4, 1) },
		"bucket overflow":  func() { NewFamily(2, 16, 20, 1) },
		"negative buckets": func() { NewFamily(2, 32, -1, 1) },
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
