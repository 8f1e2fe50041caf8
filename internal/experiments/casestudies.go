package experiments

import (
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/core"
	"simdhtbench/internal/report"
	"simdhtbench/internal/workload"
)

// Fig7a reproduces Case Study ②: 16-bit and 64-bit hash keys. It contrasts
// (K,V) = (64,64) over a 3-way cuckoo HT (gather-width-limited,
// Observation ②) and (K,V) = (16,32) over a (2,8) BCHT against the (32,32)
// reference, at a 512 KB-class table, LF=90%, hit=90%.
func Fig7a(o Options) (*report.Table, error) {
	m := arch.SkylakeClusterA()
	var cfgs []config
	for _, c := range []struct{ keyBits, valBits, n, mm int }{
		{32, 32, 3, 1}, // reference from Case Study 1
		{64, 64, 3, 1},
		{16, 32, 2, 8},
		{32, 32, 2, 8}, // reference for the BCHT comparison
	} {
		for _, pattern := range []workload.Pattern{workload.Uniform, workload.Skewed} {
			p := baseParams(m, c.n, c.mm, 512<<10)
			p.KeyBits, p.ValBits, p.Pattern = c.keyBits, c.valBits, pattern
			label := fmt.Sprintf("fig7a (%d,%d)b (%d,%d) %s", c.keyBits, c.valBits, c.n, c.mm, pattern)
			cfgs = append(cfgs, config{label, p})
		}
	}
	runs, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 7a / Case Study 2: variable key/payload widths, 512KB-class HT on Skylake",
		"(K,V) bits", "Layout", "Pattern", "Scalar M/s", "SIMD design", "SIMD M/s", "Speedup")
	for _, r := range runs {
		p := r.Params
		design, simd, speedup := "-", "-", "-"
		if best, ok := r.Best(); ok {
			design, simd, speedup = best.Choice.String(), mops(best.LookupsPerSec), times(r.Speedup(best))
		}
		t.AddRow(fmt.Sprintf("(%d,%d)", p.KeyBits, p.ValBits), layoutLabel(p), p.Pattern.String(),
			mops(r.Scalar.LookupsPerSec), design, simd, speedup)
	}
	return t, nil
}

// Fig7b reproduces Case Study ③: AVX2 vs AVX-512 on a 3-way cuckoo HT
// (8 vs 16 keys/iteration) and a (2,4) BCHT (one bucket per vector vs both
// buckets in parallel), at 20 and 40 concurrent cores, 1 MB and 16 MB
// tables.
func Fig7b(o Options) (*report.Table, error) {
	m := arch.SkylakeClusterA()
	var cfgs []config
	for _, sz := range []int{1 << 20, 16 << 20} {
		for _, cores := range []int{20, 40} {
			for _, nm := range [][2]int{{3, 1}, {2, 4}} {
				p := baseParams(m, nm[0], nm[1], sz)
				p.Cores, p.Widths = cores, []int{256, 512}
				cfgs = append(cfgs, config{fmt.Sprintf("fig7b %s %dc (%d,%d)", sizeLabel(sz), cores, nm[0], nm[1]), p})
			}
		}
	}
	runs, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 7b / Case Study 3: AVX2 vs AVX-512 on Skylake, uniform, LF=90%, hit=90%",
		"HT Size", "Cores", "Layout", "AVX2 M/s", "AVX-512 M/s", "512/256 gain")
	for _, r := range runs {
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
		t.AddRow(sizeLabel(r.Params.TableBytes), fmt.Sprint(r.Params.Cores), layoutLabel(r.Params),
			mops(v256), mops(v512), gain)
	}
	return t, nil
}

// Fig8 reproduces Case Study ④: Intel Skylake (Cluster A, 40 processes) vs
// Intel Cascade Lake (Cluster C), with the two recommended designs —
// horizontal SIMD on a (2,4) BCHT and vertical SIMD on a 3-way cuckoo HT —
// at 1 MB and 16 MB, uniform and skewed.
func Fig8(o Options) (*report.Table, error) {
	var cfgs []config
	for _, m := range []*arch.Model{arch.SkylakeClusterA(), arch.CascadeLake()} {
		for _, sz := range []int{1 << 20, 16 << 20} {
			for _, pattern := range []workload.Pattern{workload.Uniform, workload.Skewed} {
				for _, nm := range [][2]int{{2, 4}, {3, 1}} {
					p := baseParams(m, nm[0], nm[1], sz)
					p.Pattern = pattern
					label := fmt.Sprintf("fig8 %s %s %s (%d,%d)", shortArch(m), sizeLabel(sz), pattern, nm[0], nm[1])
					cfgs = append(cfgs, config{label, p})
				}
			}
		}
	}
	runs, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 8 / Case Study 4: Skylake vs Cascade Lake, LF=90%, hit=90%",
		"Arch", "HT Size", "Pattern", "Design", "Scalar M/s", "SIMD M/s", "Speedup")
	for _, r := range runs {
		p := r.Params
		best, _ := r.Best()
		design := "(2,4) BCHT Hor"
		if p.M == 1 {
			design = "3-way Ver"
		}
		t.AddRow(shortArch(p.Arch), sizeLabel(p.TableBytes), p.Pattern.String(), design,
			mops(r.Scalar.LookupsPerSec), mops(best.LookupsPerSec), times(r.Speedup(best)))
	}
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
	var cfgs []config
	for _, c := range []struct {
		m     *arch.Model
		n, mm int
		sz    int
	}{
		{arch.SkylakeClusterA(), 2, 1, 1 << 20},
		{arch.SkylakeClusterA(), 2, 2, 1 << 20},
		{arch.CascadeLake(), 3, 1, 16 << 20},
		{arch.CascadeLake(), 3, 2, 16 << 20},
	} {
		p := baseParams(c.m, c.n, c.mm, c.sz)
		p.LoadFactor = 0.85
		p.Widths, p.Approaches = []int{512}, []core.Approach{core.Vertical, core.VerticalHybrid}
		cfgs = append(cfgs, config{fmt.Sprintf("fig9 %s (%d,%d)", shortArch(c.m), c.n, c.mm), p})
	}
	runs, err := runConfigs(o, cfgs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 9 / Case Study 5: vertical SIMD over BCHT (selective gathers, AVX-512)",
		"Arch", "HT Size", "Layout", "Scalar M/s", "Vertical M/s", "Speedup")
	for _, r := range runs {
		p := r.Params
		best, ok := r.Best()
		if !ok {
			return nil, fmt.Errorf("experiments: no vertical choice for (%d,%d)", p.N, p.M)
		}
		t.AddRow(shortArch(p.Arch), sizeLabel(p.TableBytes), layoutLabel(p),
			mops(r.Scalar.LookupsPerSec), mops(best.LookupsPerSec), times(r.Speedup(best)))
	}
	return t, nil
}
