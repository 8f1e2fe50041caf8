package experiments

import (
	"fmt"

	"simdhtbench/internal/memslap"
	"simdhtbench/internal/report"
	"simdhtbench/internal/sweep"
)

// FaultSweepRates are the injected message-loss rates of the fault sweep.
var FaultSweepRates = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2}

// FaultSweep measures goodput degradation under injected message loss: for
// each backend and each loss rate it runs the Multi-Get pipeline with the
// fault plan dropping that fraction of messages (on top of whatever other
// faults o.Faults already carries — crash windows, slowdowns, pressure) and
// the client protocol retrying with capped backoff. Goodput counts only keys
// actually returned to clients; degraded Multi-Gets that exhausted their
// retries contribute latency but no goodput. The rate-0 row is the healthy
// baseline (a zero spec compiles to a nil plan — no protocol, no injection).
//
// Every (backend, rate) point is one hermetic sweep job with its own
// one-server fleet, and all fault timing is virtual, so the table — and the
// obs artifacts behind it — are byte-identical at every Parallel and
// SimWorkers setting.
func FaultSweep(o KVSOptions) (*report.Table, error) {
	o = o.withDefaults()
	batch := o.Batches[0]
	backends := KVSBackends()

	type point struct {
		backend string
		rate    float64
	}
	var points []point
	for _, backend := range backends {
		for _, rate := range FaultSweepRates {
			points = append(points, point{backend, rate})
		}
	}
	jobs := make([]sweep.Job[memslap.FleetResults], len(points))
	for i, pt := range points {
		pt := pt
		jobs[i] = sweep.Job[memslap.FleetResults]{
			Label: fmt.Sprintf("faults %s drop=%.2f", pt.backend, pt.rate),
			Run: func() (memslap.FleetResults, error) {
				jo := o
				jo.Faults.Drop = pt.rate
				return runKVSWith(pt.backend, batch, jo, false)
			},
		}
	}
	results, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}

	t := report.NewTable(
		fmt.Sprintf("Fault sweep: Multi-Get goodput vs injected message loss (batch %d)", batch),
		"Backend", "Drop", "Goodput (Mkeys/s)", "vs healthy", "Degraded", "Missing keys", "Retries", "Timeouts", "E2E avg (us)")
	for i, res := range results {
		pt := points[i]
		base := results[i-i%len(FaultSweepRates)] // rate-0 row of this backend
		goodput := res.GoodputKeys
		baseGoodput := base.GoodputKeys
		t.AddRow(pt.backend,
			fmt.Sprintf("%.0f%%", pt.rate*100),
			fmt.Sprintf("%.2f", goodput/1e6),
			fmt.Sprintf("%.0f%%", goodput/baseGoodput*100),
			res.Degraded,
			res.KeysMissing,
			res.Retries,
			res.Timeouts,
			fmt.Sprintf("%.1f", res.AvgLatency*1e6))
	}
	return t, nil
}
