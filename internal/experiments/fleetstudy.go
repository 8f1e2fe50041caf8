package experiments

import (
	"fmt"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/report"
	"simdhtbench/internal/sweep"
)

// FleetOptions sizes the fleet-scale replication study. Zero values pick a
// laptop-scale default; the interesting axis is fleet width under a fixed
// aggregate open-loop arrival rate with rolling failures.
type FleetOptions struct {
	KVSOptions

	// FleetSizes is the server-count axis (default 3, 8, 16, 32, 64).
	FleetSizes []int
	// Replication is the replica-set width R (default 3, clamped to the
	// fleet size per point).
	Replication int
	// ArrivalRate is the aggregate open-loop Multi-Get arrival rate in
	// requests/s of virtual time, held constant across fleet sizes so wider
	// fleets see proportionally less load per server (default 200k).
	ArrivalRate float64
	// WriteFraction routes this share of requests through quorum writes
	// (default 0.05).
	WriteFraction float64
}

// defaultFleetFaultSpec drives the rolling failures when FleetOptions leaves
// Faults disabled: every crash window also Leaves the server from the ring
// (a rebalance storm), the timeout/retry protocol covers the downtime, and
// a little network loss keeps the failover path honest. Periods are tuned
// to the study's virtual-time horizon (total/ArrivalRate ≈ 12–18 ms), so
// each churn server fails a couple of times per run.
const defaultFleetFaultSpec = "drop=0.002,crash=5ms:1ms,timeout=100µs,retries=3,backoff=20µs"

func (o FleetOptions) withFleetDefaults() FleetOptions {
	o.KVSOptions = o.KVSOptions.withDefaults()
	if o.Items == 200000 && len(o.FleetSizes) == 0 {
		// The KVS default working set is sized for a 3-point cluster sweep;
		// a five-point replicated fleet sweep rebalances R copies of it on
		// every membership epoch, so the default fleet study uses a lighter
		// set. An explicit -items always wins.
		o.Items = 50000
	}
	if len(o.FleetSizes) == 0 {
		o.FleetSizes = []int{3, 8, 16, 32, 64}
	}
	if o.Replication <= 0 {
		o.Replication = 3
	}
	if o.ArrivalRate <= 0 {
		o.ArrivalRate = 2e5
	}
	if o.WriteFraction < 0 {
		o.WriteFraction = 0
	} else if o.WriteFraction == 0 {
		o.WriteFraction = 0.05
	}
	return o
}

// FleetStudyPoint runs one fleet size of the study: an open-loop, R-way
// replicated Multi-Get run with quorum writes and fault-driven membership
// churn, on its own hermetic simulation.
func FleetStudyPoint(nservers int, o FleetOptions) (memslap.FleetResults, error) {
	o = o.withFleetDefaults()
	spec := o.Faults
	if !spec.Enabled() {
		parsed, err := fault.ParseSpec(defaultFleetFaultSpec)
		if err != nil {
			return memslap.FleetResults{}, err
		}
		spec = parsed
	}
	col := o.Obs.Scope("config", fmt.Sprintf("fleet n=%d", nservers))
	plan := spec.NewPlan(o.FaultSeed)
	var faultProbe obs.FaultProbe
	if plan != nil {
		faultProbe = col.FaultProbe()
	}

	repl := min(o.Replication, nservers)
	fleet, err := newFleet(o.KVSOptions, col, plan, nil, fleetShape{
		backend: "vertical", servers: nservers, replication: repl,
		capacity: replicatedCapacity(o.Items, nservers, repl), batchCap: fleetBatchCap,
	})
	if err != nil {
		return memslap.FleetResults{}, err
	}
	batch := o.Batches[0]
	return memslap.RunFleet(fleet, memslap.FleetConfig{
		Config: memslap.Config{
			Clients:    o.Clients,
			BatchSize:  batch,
			Requests:   o.Requests,
			KeyBytes:   20,
			Seed:       o.Seed,
			Faults:     plan,
			FaultProbe: faultProbe,
		},
		ArrivalRate:   o.ArrivalRate,
		WriteFraction: o.WriteFraction,
		Churn:         plan != nil && plan.Spec().CrashPeriod > 0,
		FleetProbe:    col.FleetProbe(),
	})
}

// FleetStudy is the capstone table: p50/p99/p999 virtual-time latency and
// goodput versus fleet size under rolling failures — a Fig. 11-style view
// of how replication, failover and rebalance storms reshape tail latency as
// the same aggregate open-loop load spreads over more SIMD-indexed servers.
// Each fleet size is one hermetic sweep job; tables and obs artifacts are
// byte-identical at any Parallel setting.
func FleetStudy(o FleetOptions) (*report.Table, error) {
	o = o.withFleetDefaults()
	jobs := make([]sweep.Job[memslap.FleetResults], len(o.FleetSizes))
	for i, n := range o.FleetSizes {
		n := n
		jobs[i] = sweep.Job[memslap.FleetResults]{
			Label: fmt.Sprintf("fleet n=%d", n),
			Run: func() (memslap.FleetResults, error) {
				return FleetStudyPoint(n, o)
			},
		}
	}
	results, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: fleet-scale replicated Multi-Get under rolling failures (R=%d, vertical AVX-512 backend)", o.Replication),
		"Servers", "p50 (us)", "p99 (us)", "p999 (us)", "Queue p99 (us)",
		"Goodput (Mkeys/s)", "Epochs", "Moved", "Repaired", "Failovers", "Degraded")
	for i, res := range results {
		t.AddRow(o.FleetSizes[i],
			fmt.Sprintf("%.1f", res.P50Latency*1e6),
			fmt.Sprintf("%.1f", res.P99Latency*1e6),
			fmt.Sprintf("%.1f", res.P999Latency*1e6),
			fmt.Sprintf("%.1f", res.P99QueueDelay*1e6),
			fmt.Sprintf("%.2f", res.GoodputKeys/1e6),
			res.Epochs, res.KeysMoved, res.Repairs, res.Failovers, res.Degraded)
	}
	return t, nil
}
