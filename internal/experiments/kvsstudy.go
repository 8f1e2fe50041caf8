package experiments

import (
	"cmp"
	"fmt"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/report"
	"simdhtbench/internal/sweep"
)

// KVSOptions sizes the Section VI key-value-store validation.
// DefaultKVSOptions holds the laptop-scale values kvsbench runs by default;
// the paper's configuration is 2M items, 26 workers/clients on Cluster B
// with 20 B keys and 32 B values. Every study rejects a non-positive count
// or an empty batch list with a *memslap.ConfigError naming the field
// before it simulates anything.
type KVSOptions struct {
	Items    int   // stored items (paper 2M)
	Workers  int   // server worker threads
	Clients  int   // memslap client threads
	Requests int   // measured Multi-Gets per configuration
	Batches  []int // Multi-Get sizes
	Seed     int64

	// Parallel is the sweep worker count for fanning out a study's runs:
	// 0 = all cores, 1 = sequential. Each run builds its own discrete-event
	// simulation, fabric, item stores and servers (with each server's
	// per-worker engines), so results are bit-identical at every setting.
	// Every KVS study runs a memslap.Fleet on the partitioned engine
	// (internal/des.Partitioned), one per run: clients and coordinator on
	// partition 0, one partition per server — Fig. 11, ETC and the fault
	// sweep on a one-server fleet.
	Parallel int

	// OnSweep, when non-nil, observes sweep timing stats (CLI -sweepstats).
	OnSweep func(*sweep.Stats)

	// Obs, when non-nil, collects metrics and virtual-time (DES clock)
	// traces. Each run gets the "config" scope of its label, so artifacts
	// are byte-identical at every Parallel setting.
	Obs *obs.Collector

	// Faults, when enabled, compiles to a fault.Plan per run (seeded with
	// FaultSeed) injecting network drop/dup/delay, server crash/slowdown
	// windows, insert pressure and overload controls, and arming the
	// client's timeout/retry protocol. Every study but the overload study,
	// which derives its own specs and rejects an enabled one, runs under
	// it. The zero Spec injects nothing and changes nothing.
	Faults fault.Spec

	// FaultSeed seeds the fault plan's RNG; 0 falls back to Seed.
	FaultSeed int64

	// Heartbeat, when non-nil, ticks once per dispatched DES event, on
	// every partition — periodic stderr progress for long runs, never in
	// deterministic output.
	Heartbeat *obs.Heartbeat
}

// DefaultKVSOptions returns the options kvsbench runs by default.
func DefaultKVSOptions() KVSOptions {
	return KVSOptions{
		Items: 200000, Workers: 26, Clients: 26, Requests: 3000,
		Batches: []int{16, 64}, Seed: 7,
	}
}

func (o KVSOptions) validate() error {
	return cmp.Or(
		positive("items", o.Items),
		positive("workers", o.Workers),
		positive("clients", o.Clients),
		positive("requests", o.Requests),
		positive("batch size", o.Batches...),
	)
}

// KVSBackends returns the three backends of Fig. 11 in paper order.
func KVSBackends() []string {
	return []string{"memc3", "horizontal", "vertical"}
}

// RunKVS executes one memslap Multi-Get run against a freshly built server
// with the named backend ("memc3", "horizontal", "vertical") at Multi-Get
// size batch, under o.Faults; o.Batches is not read.
func RunKVS(backend string, batch int, o KVSOptions) (memslap.FleetResults, error) {
	o.Batches = []int{batch}
	if err := o.validate(); err != nil {
		return memslap.FleetResults{}, err
	}
	return oneServerRun(o, backend, batch, false, o.Faults).run(o)
}

// oneServerRun is the Section VI setup that Fig. 11, ETC, the fault sweep
// and RunKVS run: closed-loop memslap clients against one server, a
// one-server R=1 fleet, under spec. The server's index holds o.Items keys
// and caps batches at max(batch, 128); etc loads Facebook-ETC item sizes
// instead of the fixed memslap 20 B/32 B items. The label names the
// backend and batch, then " etc" to keep ETC series distinct from a
// same-run Fig. 11, then an enabled spec, so that same-config runs at
// different fault settings (the fault sweep) land in disjoint obs scopes.
func oneServerRun(o KVSOptions, backend string, batch int, etc bool, spec fault.Spec) kvsRun {
	label := fmt.Sprintf("%s b=%d", backend, batch)
	if etc {
		label += " etc"
	}
	if spec.Enabled() {
		label += " faults=" + spec.String()
	}
	return kvsRun{
		label: label,
		shape: fleetShape{
			backend: backend, servers: 1, replication: 1,
			capacity: o.Items, batchCap: max(batch, 128), etc: etc,
		},
		faults: spec,
		cfg:    memslap.FleetConfig{Config: memslap.Config{Clients: o.Clients, BatchSize: batch}},
	}
}

// backendSweep validates o and runs one one-server run per (batch, backend)
// pair under o.Faults. It returns the results indexed [batch][backend], in
// the order of o.Batches and KVSBackends().
func backendSweep(o KVSOptions, etc bool) ([][]memslap.FleetResults, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	backends := KVSBackends()
	var runs []kvsRun
	for _, batch := range o.Batches {
		for _, backend := range backends {
			runs = append(runs, oneServerRun(o, backend, batch, etc, o.Faults))
		}
	}
	flat, err := runKVSRuns(o, runs)
	if err != nil {
		return nil, err
	}
	out := make([][]memslap.FleetResults, len(o.Batches))
	for i := range out {
		out[i] = flat[i*len(backends) : (i+1)*len(backends)]
	}
	return out, nil
}

// Fig11Result is one Fig. 11 sweep: a memslap run per (batch, backend)
// pair, Runs[batch][backend] in the order of Batches and KVSBackends().
// Fig11aTable and Fig11bTable both render it, so a CLI run that prints both
// figures simulates, and records into its collector, each run once.
type Fig11Result struct {
	Batches []int
	Runs    [][]memslap.FleetResults
}

// Fig11StudyResult runs the Fig. 11 sweep: one-server Multi-Get runs of
// MemC3 and the two SIMD-aware backends at every batch size of o.
func Fig11StudyResult(o KVSOptions) (Fig11Result, error) {
	runs, err := backendSweep(o, false)
	if err != nil {
		return Fig11Result{}, err
	}
	return Fig11Result{Batches: o.Batches, Runs: runs}, nil
}

// Fig11aTable renders Fig. 11a: end-to-end Multi-Get latency and
// server-side Get throughput (throughput of the hash-table-lookup phase, as
// the paper measures it) for MemC3 vs the two SIMD-aware backends.
func Fig11aTable(fig Fig11Result) *report.Table {
	t := report.NewTable("Fig. 11a: RDMA-Memcached Multi-Get — end-to-end latency & server-side Get throughput",
		"Batch", "Backend", "E2E avg (us)", "E2E p99 (us)", "Server Get thr (M/s)", "Thr vs MemC3", "Lat gain vs MemC3")
	for bi, batch := range fig.Batches {
		var baseThr, baseLat float64
		for i, res := range fig.Runs[bi] {
			lookupThr := float64(batch) / res.Breakdown.Lookup
			if i == 0 { // memc3 leads KVSBackends()
				baseThr, baseLat = lookupThr, res.AvgLatency
			}
			t.AddRow(batch, res.Backend,
				fmt.Sprintf("%.1f", res.AvgLatency*1e6),
				fmt.Sprintf("%.1f", res.P99Latency*1e6),
				fmt.Sprintf("%.1f", lookupThr/1e6),
				fmt.Sprintf("%.2fx", lookupThr/baseThr),
				fmt.Sprintf("%.0f%%", (1-res.AvgLatency/baseLat)*100))
		}
	}
	return t
}

// Fig11bTable renders Fig. 11b: the server-side timewise breakdown per
// Multi-Get request — pre-processing, hash-table lookup and post-processing
// sub-phases of the server data access phase.
func Fig11bTable(fig Fig11Result) *report.Table {
	t := report.NewTable("Fig. 11b: server-side per-batch phase breakdown",
		"Batch", "Backend", "Pre (us)", "Lookup (us)", "Post (us)", "Data access (us)", "vs MemC3")
	for bi, batch := range fig.Batches {
		var base float64
		for i, res := range fig.Runs[bi] {
			total := res.Breakdown.Total()
			if i == 0 {
				base = total
			}
			t.AddRow(batch, res.Backend,
				fmt.Sprintf("%.2f", res.Breakdown.Pre*1e6),
				fmt.Sprintf("%.2f", res.Breakdown.Lookup*1e6),
				fmt.Sprintf("%.2f", res.Breakdown.Post*1e6),
				fmt.Sprintf("%.2f", total*1e6),
				fmt.Sprintf("%.0f%%", total/base*100))
		}
	}
	return t
}

// ETCStudy runs the Multi-Get comparison with Facebook-ETC item sizes
// (variable keys in the tens of bytes, heavy-tailed values) instead of the
// fixed 20 B/32 B memslap configuration — the workload the paper's
// introduction motivates with. Larger, variable values shift time from the
// lookup phase into response assembly, so the SIMD edge shrinks relative to
// Fig. 11; the study quantifies by how much.
func ETCStudy(o KVSOptions) (*report.Table, error) {
	results, err := backendSweep(o, true)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: Multi-Get with Facebook-ETC item sizes",
		"Batch", "Backend", "E2E avg (us)", "Server Get thr (M/s)", "Thr vs MemC3")
	for bi, batch := range o.Batches {
		var base float64
		for i, res := range results[bi] {
			lookupThr := float64(batch) / res.Breakdown.Lookup
			if i == 0 {
				base = lookupThr
			}
			t.AddRow(batch, res.Backend,
				fmt.Sprintf("%.1f", res.AvgLatency*1e6),
				fmt.Sprintf("%.1f", lookupThr/1e6),
				fmt.Sprintf("%.2fx", lookupThr/base))
		}
	}
	return t, nil
}

// ClusterStudy scales the Section VI pipeline across a server cluster with
// client-side consistent hashing (the request phase of Section VI-A):
// Multi-Gets split into per-server sub-batches, and end-to-end latency is
// the fan-out maximum. More servers raise aggregate throughput but shrink
// per-server sub-batches, eroding the batching that makes SIMD lookups and
// network transfers efficient — the classic multiget-hole trade-off.
// Each (servers, batch) point is one run owning its whole simulated
// cluster: an unreplicated, closed-loop memslap.Fleet under o.Faults.
func ClusterStudy(o KVSOptions) (*report.Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	var runs []kvsRun
	for _, n := range []int{1, 2, 4} {
		for _, batch := range o.Batches {
			runs = append(runs, kvsRun{
				label: fmt.Sprintf("cluster s=%d b=%d", n, batch),
				// Ceil division: flooring the per-server share can
				// undersize the index when Items doesn't divide evenly,
				// and an imbalanced ring would fail the load.
				shape: fleetShape{
					backend: "vertical", servers: n, replication: 1,
					capacity: (o.Items+n-1)/n + o.Items/4, batchCap: fleetBatchCap,
				},
				faults: o.Faults,
				cfg:    memslap.FleetConfig{Config: memslap.Config{Clients: o.Clients, BatchSize: batch}},
			})
		}
	}
	results, err := runKVSRuns(o, runs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: Multi-Get across a consistent-hashing cluster (vertical AVX-512 backend)",
		"Servers", "Batch", "Agg. thr (Mkeys/s)", "E2E avg (us)", "E2E p99 (us)", "Avg fanout")
	for i, res := range results {
		t.AddRow(runs[i].shape.servers, runs[i].cfg.BatchSize,
			fmt.Sprintf("%.1f", res.ThroughputKeys/1e6),
			fmt.Sprintf("%.1f", res.AvgLatency*1e6),
			fmt.Sprintf("%.1f", res.P99Latency*1e6),
			fmt.Sprintf("%.2f", res.AvgFanout))
	}
	return t, nil
}
