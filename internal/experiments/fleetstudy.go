package experiments

import (
	"cmp"
	"fmt"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/report"
)

// FleetOptions sizes the fleet-scale replication study; the interesting
// axis is fleet width under a fixed aggregate open-loop arrival rate with
// rolling failures. DefaultFleetOptions holds the laptop-scale values
// kvsbench runs by default. The study rejects what KVSOptions rejects, an
// empty or non-positive fleet size, a non-positive replication, an arrival
// rate that is not positive and finite, and a write fraction outside
// [0, 1), with a *memslap.ConfigError naming the field.
type FleetOptions struct {
	KVSOptions

	// FleetSizes is the server-count axis.
	FleetSizes []int
	// Replication is the replica-set width R, clamped to the fleet size
	// per point.
	Replication int
	// ArrivalRate is the aggregate open-loop Multi-Get arrival rate in
	// requests/s of virtual time, held constant across fleet sizes so wider
	// fleets see proportionally less load per server.
	ArrivalRate float64
	// WriteFraction routes this share of requests through quorum writes;
	// 0 issues none.
	WriteFraction float64
}

// DefaultFleetOptions returns the options `kvsbench fleet` runs by default.
func DefaultFleetOptions() FleetOptions {
	return FleetOptions{
		KVSOptions:    DefaultKVSOptions(),
		FleetSizes:    []int{3, 8, 16, 32, 64},
		Replication:   3,
		ArrivalRate:   2e5,
		WriteFraction: 0.05,
	}
}

func (o FleetOptions) validate() error {
	if err := cmp.Or(
		o.KVSOptions.validate(),
		positive("fleet size", o.FleetSizes...),
		positive("replication", o.Replication),
		positive("arrival rate", o.ArrivalRate),
	); err != nil {
		return err
	}
	if !(o.WriteFraction >= 0 && o.WriteFraction < 1) {
		return &memslap.ConfigError{Field: "write fraction", Reason: fmt.Sprintf("%g is not in [0, 1)", o.WriteFraction)}
	}
	return nil
}

// defaultFleetFaultSpec drives the rolling failures when FleetOptions leaves
// Faults disabled: every crash window also Leaves the server from the ring
// (a rebalance storm), the timeout/retry protocol covers the downtime, and
// a little network loss keeps the failover path honest. Periods are tuned
// to the study's virtual-time horizon (total/ArrivalRate ≈ 12–18 ms), so
// each churn server fails a couple of times per run.
const defaultFleetFaultSpec = "drop=0.002,crash=5ms:1ms,timeout=100µs,retries=3,backoff=20µs"

// fleetRun is the study's run at n servers: an open-loop, R-way replicated
// Multi-Get run with quorum writes and fault-driven membership churn under
// spec, on its own hermetic simulation.
func (o FleetOptions) fleetRun(n int, spec fault.Spec) kvsRun {
	repl := min(o.Replication, n)
	return kvsRun{
		label: fmt.Sprintf("fleet n=%d", n),
		shape: fleetShape{
			backend: "vertical", servers: n, replication: repl,
			capacity: replicatedCapacity(o.Items, n, repl), batchCap: fleetBatchCap,
		},
		faults: spec,
		cfg: memslap.FleetConfig{
			Config:        memslap.Config{Clients: o.Clients, BatchSize: o.Batches[0]},
			ArrivalRate:   o.ArrivalRate,
			WriteFraction: o.WriteFraction,
			Churn:         spec.CrashPeriod > 0,
		},
		fleetProbe: true,
	}
}

// FleetStudyResult runs the fleet-scale replication study, one run per
// fleet size in o.FleetSizes order, under o.Faults or, when that is
// disabled, the built-in rolling-failure spec. Each fleet size is one
// hermetic sweep job, so results and obs artifacts are byte-identical at
// any Parallel setting.
func FleetStudyResult(o FleetOptions) ([]memslap.FleetResults, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	spec := o.Faults
	if !spec.Enabled() {
		parsed, err := fault.ParseSpec(defaultFleetFaultSpec)
		if err != nil {
			return nil, err
		}
		spec = parsed
	}
	runs := make([]kvsRun, len(o.FleetSizes))
	for i, n := range o.FleetSizes {
		runs[i] = o.fleetRun(n, spec)
	}
	return runKVSRuns(o.KVSOptions, runs)
}

// FleetTable is the capstone table: p50/p99/p999 virtual-time latency and
// goodput versus fleet size under rolling failures — a Fig. 11-style view
// of how replication, failover and rebalance storms reshape tail latency as
// the same aggregate open-loop load spreads over more SIMD-indexed servers.
// results holds FleetStudyResult(o).
func FleetTable(o FleetOptions, results []memslap.FleetResults) *report.Table {
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
	return t
}
