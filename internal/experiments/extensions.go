package experiments

import (
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/core"
	"simdhtbench/internal/report"
)

// The runners in this file go beyond the paper's evaluation: the
// split-bucket ablation (a memory-layout dimension the paper's Table I
// designs imply but its suite does not isolate) and the mixed read/update
// study the paper names as future work in Section VII.

// SplitBucket runs the split-vs-interleaved bucket ablation: for bucketized
// layouts, storing all keys of a bucket contiguously lets the horizontal
// template probe the key block alone, admitting narrower (higher-clocked)
// vectors and smaller loads. The effect is largest for narrow keys — the
// (2,8) table of 16-bit keys probes in 128 bits instead of 512.
func SplitBucket(o Options) (*report.Table, error) {
	m := arch.SkylakeClusterA()
	var cfgs []config
	for _, c := range []struct{ n, mm, kb, vb int }{
		{2, 8, 16, 32},
		{2, 4, 32, 32},
		{2, 8, 32, 32},
	} {
		for _, split := range []bool{false, true} {
			p := baseParams(m, c.n, c.mm, 512<<10)
			p.KeyBits, p.ValBits, p.Split = c.kb, c.vb, split
			p.Approaches = []core.Approach{core.Horizontal}
			label := fmt.Sprintf("split (%d,%d)x(%d,%d) %s", c.n, c.mm, c.kb, c.vb, arrangement(split))
			cfgs = append(cfgs, config{label, p})
		}
	}
	runs, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: split vs interleaved bucket layout (horizontal SIMD, Skylake, uniform)",
		"Layout", "(K,V) bits", "Arrangement", "Scalar M/s", "Best SIMD", "SIMD M/s", "Speedup")
	for _, r := range runs {
		p := r.Params
		design, simd, speedup := "-", "-", "-"
		if best, ok := r.Best(); ok {
			design, simd, speedup = best.Choice.String(), mops(best.LookupsPerSec), times(r.Speedup(best))
		}
		t.AddRow(layoutLabel(p), fmt.Sprintf("(%d,%d)", p.KeyBits, p.ValBits), arrangement(p.Split),
			mops(r.Scalar.LookupsPerSec), design, simd, speedup)
	}
	return t, nil
}

func arrangement(split bool) string {
	if split {
		return "split"
	}
	return "interleaved"
}

// MixedWorkload runs the future-work study of Section VII: lookup streams
// with a growing fraction of payload updates (core.Params.UpdateFraction).
// Updates run the inherently scalar cuckoo insert path and fragment SIMD
// batches, so the SIMD advantage decays with the update fraction.
func MixedWorkload(o Options) (*report.Table, error) {
	m := arch.SkylakeClusterA()
	var cfgs []config
	for _, uf := range []float64{0, 0.01, 0.05, 0.25, 0.5} {
		p := baseParams(m, 3, 1, 1<<20)
		p.UpdateFraction = uf
		cfgs = append(cfgs, config{fmt.Sprintf("mixed %.0f%%", uf*100), p})
	}
	runs, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension (paper future work): mixed read/update workloads, 3-way cuckoo HT, 1MB, Skylake",
		"Update fraction", "Scalar Mops/s", "Best SIMD Mops/s", "Speedup")
	for _, r := range runs {
		best, ok := r.Best()
		if !ok {
			return nil, fmt.Errorf("experiments: no SIMD choice in mixed study")
		}
		t.AddRow(fmt.Sprintf("%.0f%%", r.Params.UpdateFraction*100),
			mops(r.Scalar.LookupsPerSec), mops(best.LookupsPerSec), times(r.Speedup(best)))
	}
	return t, nil
}

// AMACStudy contrasts three ways of doing batched lookups across table
// sizes: the paper's plain scalar baseline, the group-prefetching AMAC
// scalar baseline from the software-prefetching literature, and the best
// SIMD design. It separates the memory-level-parallelism component of the
// SIMD win (AMAC gets it too) from the instruction-reduction component
// (SIMD only).
func AMACStudy(o Options) (*report.Table, error) {
	m := arch.SkylakeClusterA()
	var cfgs []config
	for _, sz := range []int{256 << 10, 4 << 20, 64 << 20} {
		p := baseParams(m, 3, 1, sz)
		p.WithAMAC = true
		cfgs = append(cfgs, config{fmt.Sprintf("amac %s", sizeLabel(sz)), p})
	}
	runs, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: scalar vs AMAC (group prefetching) vs SIMD, 3-way cuckoo HT, uniform",
		"HT Size", "Scalar M/s", "AMAC M/s", "Best SIMD M/s", "AMAC/Scalar", "SIMD/AMAC")
	for _, r := range runs {
		best, _ := r.Best()
		t.AddRow(sizeLabel(r.Params.TableBytes),
			mops(r.Scalar.LookupsPerSec), mops(r.AMAC.LookupsPerSec), mops(best.LookupsPerSec),
			times(r.AMAC.LookupsPerSec/r.Scalar.LookupsPerSec), times(best.LookupsPerSec/r.AMAC.LookupsPerSec))
	}
	return t, nil
}

// EmergingArchitectures extends Case Study ④ past the paper's hardware: the
// two recommended designs on Skylake, Cascade Lake, Ice Lake (near-parity
// AVX-512 licensing) and AMD Zen 2 (no AVX-512; microcoded gathers). The
// interesting prediction: on Zen 2 the vertical approach loses most of its
// edge — gathers decompose into scalar loads — so the horizontal BCHT
// becomes the design of choice, inverting the paper's Skylake guidance.
// Each architecture runs the (2,4) horizontal and the 3-way vertical
// design as two sweep jobs.
func EmergingArchitectures(o Options) (*report.Table, error) {
	var cfgs []config
	for _, m := range []*arch.Model{arch.SkylakeClusterA(), arch.CascadeLake(), arch.IceLake(), arch.Zen2()} {
		cfgs = append(cfgs,
			config{fmt.Sprintf("arches %s hor", m.Name), baseParams(m, 2, 4, 1<<20)},
			config{fmt.Sprintf("arches %s ver", m.Name), baseParams(m, 3, 1, 1<<20)})
	}
	runs, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: the recommended designs on emerging architectures (1MB HT, uniform, LF=90%)",
		"Arch", "Scalar M/s", "(2,4) Hor M/s", "3-way Ver M/s", "Hor speedup", "Ver speedup", "Best")
	for i := 0; i < len(runs); i += 2 {
		hor, ver := runs[i], runs[i+1]
		hBest, _ := hor.Best()
		vBest, _ := ver.Best()
		best := "vertical"
		if hBest.LookupsPerSec > vBest.LookupsPerSec {
			best = "horizontal"
		}
		t.AddRow(hor.Params.Arch.Name, mops(hor.Scalar.LookupsPerSec), mops(hBest.LookupsPerSec),
			mops(vBest.LookupsPerSec), times(hor.Speedup(hBest)), times(ver.Speedup(vBest)), best)
	}
	return t, nil
}
