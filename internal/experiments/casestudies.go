package experiments

import (
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/core"
	"simdhtbench/internal/report"
	"simdhtbench/internal/sweep"
	"simdhtbench/internal/workload"
)

// Fig7a reproduces Case Study ②: 16-bit and 64-bit hash keys. It contrasts
// (K,V) = (64,64) over a 3-way cuckoo HT (gather-width-limited,
// Observation ②) and (K,V) = (16,32) over a (2,8) BCHT against the (32,32)
// reference, at a 512 KB-class table, LF=90%, hit=90%.
func Fig7a(o Options) (*report.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m := arch.SkylakeClusterA()
	t := report.NewTable("Fig. 7a / Case Study 2: variable key/payload widths, 512KB-class HT on Skylake",
		"(K,V) bits", "Layout", "Pattern", "Scalar M/s", "SIMD design", "SIMD M/s", "Speedup")
	type cfg struct {
		keyBits, valBits, n, mm int
	}
	var jobs []sweep.Job[[]string]
	for _, c := range []cfg{
		{32, 32, 3, 1}, // reference from Case Study 1
		{64, 64, 3, 1},
		{16, 32, 2, 8},
		{32, 32, 2, 8}, // reference for the BCHT comparison
	} {
		for _, p := range []workload.Pattern{workload.Uniform, workload.Skewed} {
			c, p := c, p
			label := fmt.Sprintf("fig7a (%d,%d)b (%d,%d) %s", c.keyBits, c.valBits, c.n, c.mm, p)
			jobs = append(jobs, sweep.Job[[]string]{
				Label: label,
				Run: func() ([]string, error) {
					r, err := core.Run(core.Params{
						Arch: m, N: c.n, M: c.mm, KeyBits: c.keyBits, ValBits: c.valBits,
						TableBytes: 512 << 10, LoadFactor: 0.9, HitRate: 0.9,
						Pattern: p, Queries: o.Queries, Seed: o.Seed,
						Obs:       o.Obs.Scope("config", label),
						Heartbeat: o.Heartbeat,
					})
					if err != nil {
						return nil, err
					}
					best, ok := r.Best()
					if !ok {
						return []string{
							fmt.Sprintf("(%d,%d)", c.keyBits, c.valBits),
							fmt.Sprintf("(%d,%d)", c.n, c.mm), p.String(),
							fmt.Sprintf("%.1f", r.Scalar.LookupsPerSec/1e6), "-", "-", "-",
						}, nil
					}
					return []string{
						fmt.Sprintf("(%d,%d)", c.keyBits, c.valBits),
						fmt.Sprintf("(%d,%d)", c.n, c.mm), p.String(),
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

// Fig7b reproduces Case Study ③: AVX2 vs AVX-512 on a 3-way cuckoo HT
// (8 vs 16 keys/iteration) and a (2,4) BCHT (one bucket per vector vs both
// buckets in parallel), at 20 and 40 concurrent cores, 1 MB and 16 MB
// tables.
func Fig7b(o Options) (*report.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m := arch.SkylakeClusterA()
	t := report.NewTable("Fig. 7b / Case Study 3: AVX2 vs AVX-512 on Skylake, uniform, LF=90%, hit=90%",
		"HT Size", "Cores", "Layout", "AVX2 M/s", "AVX-512 M/s", "512/256 gain")
	var jobs []sweep.Job[[]string]
	for _, sz := range []int{1 << 20, 16 << 20} {
		for _, cores := range []int{20, 40} {
			for _, nm := range [][2]int{{3, 1}, {2, 4}} {
				sz, cores, nm := sz, cores, nm
				label := fmt.Sprintf("fig7b %s %dc (%d,%d)", sizeLabel(sz), cores, nm[0], nm[1])
				jobs = append(jobs, sweep.Job[[]string]{
					Label: label,
					Run: func() ([]string, error) {
						r, err := core.Run(core.Params{
							Arch: m, N: nm[0], M: nm[1], KeyBits: 32, ValBits: 32,
							TableBytes: sz, LoadFactor: 0.9, HitRate: 0.9, Cores: cores,
							Pattern: workload.Uniform, Queries: o.Queries, Seed: o.Seed,
							Widths:    []int{256, 512},
							Obs:       o.Obs.Scope("config", label),
							Heartbeat: o.Heartbeat,
						})
						if err != nil {
							return nil, err
						}
						var v256, v512 float64
						for _, meas := range r.Vector {
							switch meas.Choice.Width {
							case 256:
								v256 = meas.LookupsPerSec
							case 512:
								v512 = meas.LookupsPerSec
							}
						}
						gain := "-"
						if v256 > 0 && v512 > 0 {
							gain = fmt.Sprintf("%+.0f%%", (v512/v256-1)*100)
						}
						return []string{
							sizeLabel(sz), fmt.Sprintf("%d", cores), fmt.Sprintf("(%d,%d)", nm[0], nm[1]),
							fmt.Sprintf("%.1f", v256/1e6), fmt.Sprintf("%.1f", v512/1e6), gain,
						}, nil
					},
				})
			}
		}
	}
	rows, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

// Fig8 reproduces Case Study ④: Intel Skylake (Cluster A, 40 processes) vs
// Intel Cascade Lake (Cluster C), with the two recommended designs —
// horizontal SIMD on a (2,4) BCHT and vertical SIMD on a 3-way cuckoo HT —
// at 1 MB and 16 MB, uniform and skewed.
func Fig8(o Options) (*report.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 8 / Case Study 4: Skylake vs Cascade Lake, LF=90%, hit=90%",
		"Arch", "HT Size", "Pattern", "Design", "Scalar M/s", "SIMD M/s", "Speedup")
	var jobs []sweep.Job[[]string]
	for _, m := range []*arch.Model{arch.SkylakeClusterA(), arch.CascadeLake()} {
		for _, sz := range []int{1 << 20, 16 << 20} {
			for _, p := range []workload.Pattern{workload.Uniform, workload.Skewed} {
				for _, nm := range [][2]int{{2, 4}, {3, 1}} {
					m, sz, p, nm := m, sz, p, nm
					label := fmt.Sprintf("fig8 %s %s %s (%d,%d)", shortArch(m), sizeLabel(sz), p, nm[0], nm[1])
					jobs = append(jobs, sweep.Job[[]string]{
						Label: label,
						Run: func() ([]string, error) {
							r, err := core.Run(core.Params{
								Arch: m, N: nm[0], M: nm[1], KeyBits: 32, ValBits: 32,
								TableBytes: sz, LoadFactor: 0.9, HitRate: 0.9,
								Pattern: p, Queries: o.Queries, Seed: o.Seed,
								Obs:       o.Obs.Scope("config", label),
								Heartbeat: o.Heartbeat,
							})
							if err != nil {
								return nil, err
							}
							best, _ := r.Best()
							design := "(2,4) BCHT Hor"
							if nm[1] == 1 {
								design = "3-way Ver"
							}
							return []string{
								shortArch(m), sizeLabel(sz), p.String(), design,
								fmt.Sprintf("%.1f", r.Scalar.LookupsPerSec/1e6),
								fmt.Sprintf("%.1f", best.LookupsPerSec/1e6),
								fmt.Sprintf("%.2fx", r.Speedup(best)),
							}, nil
						},
					})
				}
			}
		}
	}
	rows, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

func shortArch(m *arch.Model) string {
	if m.Cores == 48 {
		return "CascadeLake"
	}
	return "Skylake"
}

// Fig9 reproduces Case Study ⑤: applying vertical vectorization to BCHTs —
// (2,2) BCHT vs 2-way cuckoo HT on Skylake (1 MB), and (3,2) BCHT vs 3-way
// cuckoo HT on Cascade Lake (16 MB), all with AVX-512.
func Fig9(o Options) (*report.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 9 / Case Study 5: vertical SIMD over BCHT (selective gathers, AVX-512)",
		"Arch", "HT Size", "Layout", "Scalar M/s", "Vertical M/s", "Speedup")
	type cfg struct {
		m     *arch.Model
		n, mm int
		sz    int
	}
	cfgs := []cfg{
		{arch.SkylakeClusterA(), 2, 1, 1 << 20},
		{arch.SkylakeClusterA(), 2, 2, 1 << 20},
		{arch.CascadeLake(), 3, 1, 16 << 20},
		{arch.CascadeLake(), 3, 2, 16 << 20},
	}
	jobs := make([]sweep.Job[[]string], len(cfgs))
	for i, c := range cfgs {
		c := c
		label := fmt.Sprintf("fig9 %s (%d,%d)", shortArch(c.m), c.n, c.mm)
		jobs[i] = sweep.Job[[]string]{
			Label: label,
			Run: func() ([]string, error) {
				approaches := []core.Approach{core.Vertical, core.VerticalHybrid}
				r, err := core.Run(core.Params{
					Arch: c.m, N: c.n, M: c.mm, KeyBits: 32, ValBits: 32,
					TableBytes: c.sz, LoadFactor: 0.85, HitRate: 0.9,
					Pattern: workload.Uniform, Queries: o.Queries, Seed: o.Seed,
					Widths: []int{512}, Approaches: approaches,
					Obs:       o.Obs.Scope("config", label),
					Heartbeat: o.Heartbeat,
				})
				if err != nil {
					return nil, err
				}
				best, ok := r.Best()
				if !ok {
					return nil, fmt.Errorf("experiments: no vertical choice for (%d,%d)", c.n, c.mm)
				}
				return []string{
					shortArch(c.m), sizeLabel(c.sz), fmt.Sprintf("(%d,%d)", c.n, c.mm),
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
