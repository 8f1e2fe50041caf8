package des

import "testing"

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pd, s := newSim()
		for j := 0; j < 100; j++ {
			s.After(float64(j), func() {})
		}
		pd.Run()
	}
	b.ReportMetric(100, "events/op")
}

func BenchmarkResourceChurn(b *testing.B) {
	pd, s := newSim()
	r := NewResource(s, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(func() { s.After(1, r.Release) })
		pd.Run()
	}
}
