package experiments

import (
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/core"
	"simdhtbench/internal/report"
	"simdhtbench/internal/sweep"
	"simdhtbench/internal/workload"
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
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m := arch.SkylakeClusterA()
	t := report.NewTable("Extension: split vs interleaved bucket layout (horizontal SIMD, Skylake, uniform)",
		"Layout", "(K,V) bits", "Arrangement", "Scalar M/s", "Best SIMD", "SIMD M/s", "Speedup")
	type cfg struct {
		n, mm, kb, vb int
	}
	var jobs []sweep.Job[[]string]
	for _, c := range []cfg{
		{2, 8, 16, 32},
		{2, 4, 32, 32},
		{2, 8, 32, 32},
	} {
		for _, split := range []bool{false, true} {
			c, split := c, split
			arrangement := "interleaved"
			if split {
				arrangement = "split"
			}
			label := fmt.Sprintf("split (%d,%d)x(%d,%d) %s", c.n, c.mm, c.kb, c.vb, arrangement)
			jobs = append(jobs, sweep.Job[[]string]{
				Label: label,
				Run: func() ([]string, error) {
					r, err := core.Run(core.Params{
						Arch: m, N: c.n, M: c.mm, KeyBits: c.kb, ValBits: c.vb, Split: split,
						TableBytes: 512 << 10, LoadFactor: 0.9, HitRate: 0.9,
						Pattern: workload.Uniform, Queries: o.Queries, Seed: o.Seed,
						Approaches: []core.Approach{core.Horizontal},
						Obs:        o.Obs.Scope("config", label),
						Heartbeat:  o.Heartbeat,
					})
					if err != nil {
						return nil, err
					}
					best, ok := r.Best()
					if !ok {
						return []string{
							fmt.Sprintf("(%d,%d)", c.n, c.mm), fmt.Sprintf("(%d,%d)", c.kb, c.vb),
							arrangement, fmt.Sprintf("%.1f", r.Scalar.LookupsPerSec/1e6), "-", "-", "-",
						}, nil
					}
					return []string{
						fmt.Sprintf("(%d,%d)", c.n, c.mm), fmt.Sprintf("(%d,%d)", c.kb, c.vb),
						arrangement,
						fmt.Sprintf("%.1f", r.Scalar.LookupsPerSec/1e6),
						best.Choice.String(),
						fmt.Sprintf("%.1f", best.LookupsPerSec/1e6),
						fmt.Sprintf("%.2fx", r.Speedup(best)),
					}, nil
				},
			})
		}
	}
	rows, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

// MixedWorkload runs the future-work study of Section VII: lookup streams
// with a growing fraction of payload updates. Updates run the inherently
// scalar cuckoo insert path and fragment SIMD batches, so the SIMD
// advantage decays with the update fraction.
func MixedWorkload(o Options) (*report.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m := arch.SkylakeClusterA()
	t := report.NewTable("Extension (paper future work): mixed read/update workloads, 3-way cuckoo HT, 1MB, Skylake",
		"Update fraction", "Scalar Mops/s", "Best SIMD Mops/s", "Speedup")
	fractions := []float64{0, 0.01, 0.05, 0.25, 0.5}
	jobs := make([]sweep.Job[[]string], len(fractions))
	for i, uf := range fractions {
		uf := uf
		label := fmt.Sprintf("mixed %.0f%%", uf*100)
		jobs[i] = sweep.Job[[]string]{
			Label: label,
			Run: func() ([]string, error) {
				r, err := core.RunMixed(core.Params{
					Arch: m, N: 3, M: 1, KeyBits: 32, ValBits: 32,
					TableBytes: 1 << 20, LoadFactor: 0.9, HitRate: 0.9,
					Pattern: workload.Uniform, Queries: o.Queries, Seed: o.Seed,
					Obs:       o.Obs.Scope("config", label),
					Heartbeat: o.Heartbeat,
				}, uf)
				if err != nil {
					return nil, err
				}
				best, ok := r.Best()
				if !ok {
					return nil, fmt.Errorf("experiments: no SIMD choice in mixed study")
				}
				return []string{
					fmt.Sprintf("%.0f%%", uf*100),
					fmt.Sprintf("%.1f", r.Scalar.LookupsPerSec/1e6),
					fmt.Sprintf("%.1f", best.LookupsPerSec/1e6),
					fmt.Sprintf("%.2fx", r.Speedup(best)),
				}, nil
			},
		}
	}
	rows, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

// AMACStudy contrasts three ways of doing batched lookups across table
// sizes: the paper's plain scalar baseline, the group-prefetching AMAC
// scalar baseline from the software-prefetching literature, and the best
// SIMD design. It separates the memory-level-parallelism component of the
// SIMD win (AMAC gets it too) from the instruction-reduction component
// (SIMD only).
func AMACStudy(o Options) (*report.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m := arch.SkylakeClusterA()
	t := report.NewTable("Extension: scalar vs AMAC (group prefetching) vs SIMD, 3-way cuckoo HT, uniform",
		"HT Size", "Scalar M/s", "AMAC M/s", "Best SIMD M/s", "AMAC/Scalar", "SIMD/AMAC")
	sizes := []int{256 << 10, 4 << 20, 64 << 20}
	jobs := make([]sweep.Job[[]string], len(sizes))
	for i, sz := range sizes {
		sz := sz
		jobLabel := fmt.Sprintf("amac %s", sizeLabel(sz))
		jobs[i] = sweep.Job[[]string]{
			Label: jobLabel,
			Run: func() ([]string, error) {
				r, err := core.Run(core.Params{
					Arch: m, N: 3, M: 1, KeyBits: 32, ValBits: 32, WithAMAC: true,
					TableBytes: sz, LoadFactor: 0.9, HitRate: 0.9,
					Pattern: workload.Uniform, Queries: o.Queries, Seed: o.Seed,
					Obs:       o.Obs.Scope("config", jobLabel),
					Heartbeat: o.Heartbeat,
				})
				if err != nil {
					return nil, err
				}
				best, _ := r.Best()
				label := fmt.Sprintf("%d KB", sz>>10)
				if sz >= 1<<20 {
					label = fmt.Sprintf("%d MB", sz>>20)
				}
				return []string{
					label,
					fmt.Sprintf("%.1f", r.Scalar.LookupsPerSec/1e6),
					fmt.Sprintf("%.1f", r.AMAC.LookupsPerSec/1e6),
					fmt.Sprintf("%.1f", best.LookupsPerSec/1e6),
					fmt.Sprintf("%.2fx", r.AMAC.LookupsPerSec/r.Scalar.LookupsPerSec),
					fmt.Sprintf("%.2fx", best.LookupsPerSec/r.AMAC.LookupsPerSec),
				}, nil
			},
		}
	}
	rows, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

// EmergingArchitectures extends Case Study ④ past the paper's hardware: the
// two recommended designs on Skylake, Cascade Lake, Ice Lake (near-parity
// AVX-512 licensing) and AMD Zen 2 (no AVX-512; microcoded gathers). The
// interesting prediction: on Zen 2 the vertical approach loses most of its
// edge — gathers decompose into scalar loads — so the horizontal BCHT
// becomes the design of choice, inverting the paper's Skylake guidance.
// Each architecture is one sweep job running both recommended designs.
func EmergingArchitectures(o Options) (*report.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: the recommended designs on emerging architectures (1MB HT, uniform, LF=90%)",
		"Arch", "Scalar M/s", "(2,4) Hor M/s", "3-way Ver M/s", "Hor speedup", "Ver speedup", "Best")
	models := []*arch.Model{arch.SkylakeClusterA(), arch.CascadeLake(), arch.IceLake(), arch.Zen2()}
	jobs := make([]sweep.Job[[]string], len(models))
	for i, m := range models {
		m := m
		label := fmt.Sprintf("arches %s", m.Name)
		jobs[i] = sweep.Job[[]string]{
			Label: label,
			Run: func() ([]string, error) {
				hor, err := core.Run(core.Params{
					Arch: m, N: 2, M: 4, KeyBits: 32, ValBits: 32,
					TableBytes: 1 << 20, LoadFactor: 0.9, HitRate: 0.9,
					Pattern: workload.Uniform, Queries: o.Queries, Seed: o.Seed,
					Obs:       o.Obs.Scope("config", label+" hor"),
					Heartbeat: o.Heartbeat,
				})
				if err != nil {
					return nil, err
				}
				ver, err := core.Run(core.Params{
					Arch: m, N: 3, M: 1, KeyBits: 32, ValBits: 32,
					TableBytes: 1 << 20, LoadFactor: 0.9, HitRate: 0.9,
					Pattern: workload.Uniform, Queries: o.Queries, Seed: o.Seed,
					Obs:       o.Obs.Scope("config", label+" ver"),
					Heartbeat: o.Heartbeat,
				})
				if err != nil {
					return nil, err
				}
				hBest, _ := hor.Best()
				vBest, _ := ver.Best()
				best := "vertical"
				if hBest.LookupsPerSec > vBest.LookupsPerSec {
					best = "horizontal"
				}
				return []string{
					m.Name,
					fmt.Sprintf("%.1f", hor.Scalar.LookupsPerSec/1e6),
					fmt.Sprintf("%.1f", hBest.LookupsPerSec/1e6),
					fmt.Sprintf("%.1f", vBest.LookupsPerSec/1e6),
					fmt.Sprintf("%.2fx", hor.Speedup(hBest)),
					fmt.Sprintf("%.2fx", ver.Speedup(vBest)),
					best,
				}, nil
			},
		}
	}
	rows, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}
