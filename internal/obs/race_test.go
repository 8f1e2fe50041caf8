// Race/determinism test: concurrent sweep workers emitting into one
// shared collector must be race-free (integer series are commutative) and
// must render byte-identical output at any worker count (float series and
// tracks are disjoint per config scope). Lives in package obs_test so it
// can exercise the real internal/sweep worker pool without an import
// cycle.
package obs_test

import (
	"bytes"
	"fmt"
	"testing"

	"simdhtbench/internal/obs"
	"simdhtbench/internal/sweep"
)

func renderSweepEmission(t *testing.T, workers int) (metrics, trace string) {
	t.Helper()
	col := obs.NewCollector()
	jobs := make([]sweep.Job[int], 24)
	for i := range jobs {
		label := fmt.Sprintf("job-%02d", i)
		scoped := col.Scope("config", label)
		jobs[i] = sweep.Job[int]{
			Label: label,
			Run: func() (int, error) {
				// Shared integer counter: concurrent adds commute.
				shared := col.Registry.Counter("shared_total")
				// Scoped float series: single-writer per config.
				g := scoped.Gauge("job_cycles")
				h := scoped.Histogram("job_hist", []float64{8, 64})
				for k := 0; k < 200; k++ {
					shared.Inc()
					g.Set(1.25 * float64(k+1))
					h.Observe(float64(k))
				}
				scoped.Span("work", 0, 200, map[string]interface{}{"iters": 200})
				return 0, nil
			},
		}
	}
	if _, _, err := sweep.Run(workers, jobs); err != nil {
		t.Fatal(err)
	}
	var mb, tb bytes.Buffer
	if err := col.Registry.WriteCSV(&mb); err != nil {
		t.Fatal(err)
	}
	if err := col.Tracer.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	return mb.String(), tb.String()
}

func TestConcurrentSweepWorkersDeterministic(t *testing.T) {
	m1, t1 := renderSweepEmission(t, 1)
	for _, workers := range []int{4, 16} {
		m, tr := renderSweepEmission(t, workers)
		if m != m1 {
			t.Errorf("metrics CSV differs between 1 and %d workers:\n%s\nvs\n%s", workers, m1, m)
		}
		if tr != t1 {
			t.Errorf("trace JSON differs between 1 and %d workers", workers)
		}
	}
}
