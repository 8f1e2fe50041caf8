package cuckoo

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// kernelAccountQueries is the query count per charged run: not a multiple of
// any vertical group width, so every template also runs a short tail group.
const kernelAccountQueries = 100

// TestKernelAccountGolden pins the complete cycle account of every valid
// charged template over the whole shape grid: N 2–4, M 1/2/4/8, 16/32/64-bit
// keys and payloads, split and interleaved buckets, 128/256/512-bit
// registers, with a query stream that mixes hits and misses. The figures and
// simbench exercise only a few of these shapes; this test is what keeps a
// change to the register model or the slot-offset math from moving a charge
// on the others. Each template runs on a fresh engine (cold caches) whose
// hierarchy is shrunk so the 4–16 KB tables hit in every level, and its
// cycles, ops, per-class cycles, memory cycles, per-level hits and misses,
// DRAM fills, hit count and result payloads are hashed into one line of
// testdata/kernel_account.golden. After the lookups, a few charged top-up
// inserts pin InsertCharged the same way. Regenerate with
//
//	go test ./internal/cuckoo -run KernelAccountGolden -update
func TestKernelAccountGolden(t *testing.T) {
	model := kernelAccountModel()
	var out bytes.Buffer
	for _, l := range kernelAccountLayouts() {
		tab, s, res, topUp := kernelAccountSetup(t, l)
		run := func(name string, lookup func(e *engine.Engine) int) {
			res.Arena.Zero()
			e := engine.New(model, 1)
			hits := lookup(e)
			writeKernelAccount(&out, l.String()+" "+name, e, hits, snapshotResults(res, kernelAccountQueries, l.ValBits))
		}
		run("scalar", func(e *engine.Engine) int {
			return tab.LookupScalarBatch(e, s, 0, kernelAccountQueries, res, nil)
		})
		run("amac", func(e *engine.Engine) int {
			return tab.LookupAMACBatch(e, s, 0, kernelAccountQueries, AMACConfig{}, res, nil)
		})
		for _, w := range []int{128, 256, 512} {
			if ok, maxBPV := HorVValid(w, l); ok {
				for bpv := 1; bpv <= maxBPV; bpv++ {
					cfg := HorizontalConfig{Width: w, BucketsPerVec: bpv}
					run(fmt.Sprintf("horizontal-%d-bpv%d", w, bpv), func(e *engine.Engine) int {
						return tab.LookupHorizontalBatch(e, s, 0, kernelAccountQueries, cfg, res, nil)
					})
				}
			}
			if ok, _ := VerVValid(w, Layout{N: l.N, M: 1, KeyBits: l.KeyBits, ValBits: l.ValBits, BucketBits: l.BucketBits}); ok {
				cfg := VerticalConfig{Width: w}
				run(fmt.Sprintf("vertical-%d", w), func(e *engine.Engine) int {
					return tab.LookupVerticalBatch(e, s, 0, kernelAccountQueries, cfg, res, nil)
				})
			}
		}
		e := engine.New(model, 1)
		inserted := 0
		for _, k := range topUp {
			if tab.InsertCharged(e, k, PayloadFor(k, l.ValBits)) == nil {
				inserted++
			}
		}
		writeKernelAccount(&out, l.String()+" insert", e, inserted, nil)
	}
	path := filepath.Join("testdata", "kernel_account.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	gotLines, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s line %d drifted:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// kernelAccountModel is Skylake Cluster A with 2 KB L1D, 8 KB L2 and 33 KB
// L3 (48 sets of 11 ways, as the real L3's set count is not a power of
// two): the grid's tables then spill from every level, and a fresh engine
// costs microseconds instead of clearing a 27 MB tag array.
func kernelAccountModel() *arch.Model {
	m := arch.SkylakeClusterA()
	m.Caches[0].Size = 2 << 10
	m.Caches[1].Size = 8 << 10
	m.Caches[2].Size = 48 * 11 * mem.LineSize
	return m
}

// kernelAccountLayouts is the shape grid: every N, M and key/payload width
// combination, split and interleaved where M > 1. Bucket counts keep each
// table at 4–16 KB, so a config costs well under a millisecond of host time.
func kernelAccountLayouts() []Layout {
	var out []Layout
	for _, n := range []int{2, 3, 4} {
		for _, m := range []int{1, 2, 4, 8} {
			for _, kb := range []int{16, 32, 64} {
				for _, vb := range []int{16, 32, 64} {
					for _, split := range []bool{false, true} {
						if split && m == 1 {
							continue
						}
						l := Layout{N: n, M: m, KeyBits: kb, ValBits: vb, Split: split, BucketBits: 1}
						for l.TableBytes() < 4<<10 {
							l.BucketBits++
						}
						out = append(out, l)
					}
				}
			}
		}
	}
	return out
}

// kernelAccountSetup fills a table of layout l to load factor 0.85 and
// builds a query stream of 3/4 stored keys and 1/4 odd (absent) keys, plus
// eight fresh even keys for the charged top-up.
func kernelAccountSetup(t *testing.T, l Layout) (*Table, *Stream, *ResultBuf, []uint64) {
	t.Helper()
	space := mem.NewAddressSpace()
	tab, err := New(space, l, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(l.N*1000 + l.M*100 + l.KeyBits + l.ValBits)))
	keys, _ := tab.FillRandom(0.85, rng)
	if len(keys) == 0 {
		t.Fatalf("%s: fill inserted nothing", l)
	}
	queries := make([]uint64, kernelAccountQueries)
	for i := range queries {
		if i%4 == 3 {
			queries[i] = (rng.Uint64() & l.KeyMask()) | 1
		} else {
			queries[i] = keys[rng.Intn(len(keys))]
		}
	}
	topUp := make([]uint64, 8)
	for i := range topUp {
		topUp[i] = (rng.Uint64()&l.KeyMask())&^1 | 2
	}
	return tab, NewStream(space, queries, l.KeyBits), NewResultBuf(space, kernelAccountQueries, l.ValBits), topUp
}

// writeKernelAccount appends one golden line: the config name, its hit
// count, its cycles, and a digest of the whole account and the results.
func writeKernelAccount(out *bytes.Buffer, name string, e *engine.Engine, hits int, results []uint64) {
	h := sha256.New()
	fmt.Fprintf(h, "cycles %x ops %d mem %x\n", math.Float64bits(e.Cycles()), e.Ops(), math.Float64bits(e.MemCycles()))
	e.ForEachOpCycle(func(c arch.OpClass, cy float64) {
		fmt.Fprintf(h, "class %d %x\n", c, math.Float64bits(cy))
	})
	for _, lv := range e.Cache.Levels() {
		st, _ := e.Cache.LevelStats(lv)
		fmt.Fprintf(h, "%s %d %d\n", lv, st.Hits, st.Misses)
	}
	fmt.Fprintf(h, "dram %d hits %d\n", e.Cache.DRAMAccesses(), hits)
	for _, r := range results {
		fmt.Fprintf(h, "%x\n", r)
	}
	fmt.Fprintf(out, "%s hits=%d cycles=%.1f sha=%x\n", name, hits, e.Cycles(), h.Sum(nil)[:8])
}
