package kvs

import (
	"fmt"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/mem"
)

// FuzzMultiGet feeds HandleMGet arbitrary batches — empty batches, zero-key
// gets, duplicate keys, unknown keys, batches far beyond maxBatch (the
// chunking path) — against a server with a small SIMD index. Invariants:
// done fires exactly once, the result aligns one value per requested key,
// found keys return their stored values, and nothing panics or hangs.
func FuzzMultiGet(f *testing.F) {
	f.Add([]byte{}, uint8(0))  // empty batch
	f.Add([]byte{0}, uint8(1)) // one zero-length key
	f.Add([]byte("key-0key-0"), uint8(2) /* duplicates */)
	f.Add([]byte("key-1key-2key-3key-4key-5key-6key-7key-8key-9"), uint8(40)) // oversized vs maxBatch 8
	f.Add([]byte("\x00\xff\x00unknown-key-material"), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, n uint8) {
		pd := des.NewPartitioned(1, 1, 1e-6)
		sim := pd.Sim(0)
		space := mem.NewAddressSpace()
		store := NewItemStore(space)
		idx, err := NewVerticalIndex(space, 64, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(sim, arch.SkylakeClusterB(), 2, 8, idx, store)
		stored := map[string]string{}
		for i := 0; i < 16; i++ {
			k, v := fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)
			if _, err := srv.Set([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			stored[k] = v
		}

		// Carve the raw bytes into up to n keys of varying lengths (0–11
		// bytes), so batches mix empty, duplicate, stored and garbage keys.
		batch := make([][]byte, 0, int(n)%64)
		for i := 0; len(batch) < cap(batch); i++ {
			kl := 0
			if len(raw) > 0 {
				kl = int(raw[i%len(raw)]) % 12
			}
			from := (i * 3) % (len(raw) + 1)
			to := from + kl
			if to > len(raw) {
				to = len(raw)
			}
			batch = append(batch, raw[from:to])
		}

		fired := 0
		var res MGetResult
		srv.HandleMGet(batch, func(r MGetResult) { res = r; fired++ })
		pd.SetEventBudget(uint64(len(batch))*64 + 4096)
		pd.Run()
		if pd.BudgetExhausted() {
			t.Fatalf("MGet of %d keys did not drain within budget", len(batch))
		}
		if fired != 1 {
			t.Fatalf("done fired %d times for %d keys", fired, len(batch))
		}
		if len(res.Values) != len(batch) {
			t.Fatalf("%d values for %d keys", len(res.Values), len(batch))
		}
		found := 0
		for i, v := range res.Values {
			want, ok := stored[string(batch[i])]
			if !ok {
				if v != nil {
					t.Fatalf("unknown key %q returned value %q", batch[i], v)
				}
				continue
			}
			found++
			if string(v) != want {
				t.Fatalf("key %q returned %q, want %q", batch[i], v, want)
			}
		}
		if res.Found != found {
			t.Fatalf("Found = %d, want %d", res.Found, found)
		}
	})
}
