package experiments

import (
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/netsim"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
	"simdhtbench/internal/report"
	"simdhtbench/internal/sweep"
)

// KVSOptions sizes the Section VI key-value-store validation. Zero values
// pick a laptop-scale default; the paper's configuration is 2M items, 26
// workers/clients on Cluster B with 20 B keys and 32 B values.
type KVSOptions struct {
	Items    int   // stored items (default 200k; paper 2M)
	Workers  int   // server worker threads (default 26)
	Clients  int   // memslap client threads (default 26)
	Requests int   // measured Multi-Gets per configuration (default 3000)
	Batches  []int // Multi-Get sizes (default 16, 64)
	Seed     int64

	// Parallel is the sweep worker count for fanning out (batch, backend)
	// configurations: 0 = all cores, 1 = sequential. Each job builds its own
	// discrete-event simulation, fabric, item store and server (with that
	// server's per-worker engines), so results are bit-identical at every
	// setting.
	Parallel int

	// SimWorkers is the host goroutine count advancing each multi-server
	// simulation (ClusterStudy, FleetStudy, OverloadStudy). Those fleets
	// always run on the partitioned engine (internal/des.Partitioned):
	// clients and coordinator on partition 0, one partition per server,
	// under conservative lookahead windows. The partition count is fixed by
	// the fleet size, so artifacts are byte-identical at every SimWorkers
	// value — only wall-clock changes. ≤ 0 means one worker. Composes with
	// Parallel: each sweep job gets its own engine and worker set. The
	// one-server studies (Fig. 11, ETC, the fault sweep) run on the serial
	// engine and ignore it.
	SimWorkers int

	// OnSweep, when non-nil, observes sweep timing stats (CLI -sweepstats).
	OnSweep func(*sweep.Stats)

	// Obs, when non-nil, collects metrics and virtual-time (DES clock)
	// traces. Each (backend, batch) job gets its own scope, so artifacts
	// are byte-identical at every Parallel setting.
	Obs *obs.Collector

	// Faults, when enabled, compiles to a fault.Plan per job (seeded with
	// FaultSeed) injecting network drop/dup/delay, server crash/slowdown
	// windows and insert pressure, and arming the client's timeout/retry
	// protocol. The zero Spec injects nothing and changes nothing.
	Faults fault.Spec

	// FaultSeed seeds the fault plan's RNG; 0 falls back to Seed.
	FaultSeed int64

	// Heartbeat, when non-nil, ticks once per dispatched DES event —
	// periodic stderr progress for long runs, never in deterministic output.
	Heartbeat *obs.Heartbeat
}

func (o KVSOptions) withDefaults() KVSOptions {
	if o.Items <= 0 {
		o.Items = 200000
	}
	if o.Workers <= 0 {
		o.Workers = 26
	}
	if o.Clients <= 0 {
		o.Clients = 26
	}
	if o.Requests <= 0 {
		o.Requests = 3000
	}
	if len(o.Batches) == 0 {
		o.Batches = []int{16, 64}
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = o.Seed
	}
	return o
}

// KVSBackends returns the three backends of Fig. 11 in paper order.
func KVSBackends() []string {
	return []string{"memc3", "horizontal", "vertical"}
}

// RunKVS executes one memslap Multi-Get run against a freshly built server
// with the named backend ("memc3", "horizontal", "vertical").
func RunKVS(backend string, batch int, o KVSOptions) (memslap.Results, error) {
	return runKVSWith(backend, batch, o, false)
}

// runKVSWith optionally loads Facebook-ETC item sizes instead of the fixed
// memslap 20 B/32 B items.
func runKVSWith(backend string, batch int, o KVSOptions, etc bool) (memslap.Results, error) {
	o = o.withDefaults()
	scope := fmt.Sprintf("%s b=%d", backend, batch)
	if etc {
		scope += " etc" // keep ETC series distinct from a same-run Fig. 11
	}
	if o.Faults.Enabled() {
		// Same-config jobs at different fault settings (the fault sweep)
		// must land in disjoint obs scopes, or parallel runs would race on
		// shared series.
		scope += " faults=" + o.Faults.String()
	}
	col := o.Obs.Scope("config", scope)
	plan := o.Faults.NewPlan(o.FaultSeed)
	var faultProbe obs.FaultProbe
	if plan != nil {
		// Only an armed plan registers fault series: a fault-free run's
		// metrics artifact must stay byte-identical to the pre-fault layer.
		faultProbe = col.FaultProbe()
	}
	sim := des.New()
	sim.Probe = col.SimProbe()
	sim.Heartbeat = o.Heartbeat
	fabric := netsim.New(sim, netsim.EDR())
	fabric.Probe = col.NetProbe()
	fabric.Faults = plan
	fabric.FaultProbe = faultProbe
	space := mem.NewAddressSpace()
	store := kvs.NewItemStore(space)

	var index kvs.Index
	var err error
	maxBatch := batch
	if maxBatch < 128 {
		maxBatch = 128
	}
	switch backend {
	case "memc3":
		index = kvs.NewMemC3Index(space, o.Items, o.Seed)
	case "horizontal":
		index, err = kvs.NewHorizontalIndex(space, o.Items, maxBatch, o.Seed)
	case "vertical":
		index, err = kvs.NewVerticalIndex(space, o.Items, maxBatch, o.Seed)
	default:
		return memslap.Results{}, fmt.Errorf("experiments: unknown KVS backend %q", backend)
	}
	if err != nil {
		return memslap.Results{}, err
	}

	srv := kvs.NewServer(sim, arch.SkylakeClusterB(), o.Workers, maxBatch, index, store)
	srv.Probe = col.ServerProbe()
	if pr := col.Profiler("us"); pr != nil {
		// Attribute worker-pool queueing delay under server/queue in the
		// cycle account. The hook runs on the single DES goroutine that owns
		// this job's scope profiler, so the accumulation order — and hence
		// the folded output — is deterministic.
		h := pr.Child(pr.Child(prof.Root, "server"), "queue")
		srv.Workers.OnWait = func(seconds float64) {
			v := seconds * 1e6
			pr.AddSelf(h, v)
			pr.AddTotal(v)
		}
	}
	if plan != nil {
		srv.Faults = plan.ForServer(0)
		srv.FaultProbe = faultProbe
	}
	var keys [][]byte
	if etc {
		keys, err = memslap.LoadETC(srv, o.Items, o.Seed)
	} else {
		keys, err = memslap.LoadKeys(srv, o.Items, 20, 32)
	}
	if err != nil {
		return memslap.Results{}, err
	}
	keyBytes := 20
	if etc {
		keyBytes = 0 // variable-size keys
	}
	return memslap.Run(sim, fabric, srv, keys, memslap.Config{
		Clients:    o.Clients,
		BatchSize:  batch,
		Requests:   o.Requests,
		KeyBytes:   keyBytes,
		Seed:       o.Seed,
		Faults:     plan,
		FaultProbe: faultProbe,
	})
}

// kvsSweep fans one memslap run per (batch, backend) pair out across the
// sweep pool and returns results indexed [batch][backend], in the order of
// o.Batches and KVSBackends(). Every job is hermetic: it builds its own
// simulation clock, network fabric, item store, index and server, so the
// fan-out changes nothing about the simulated numbers.
func kvsSweep(o KVSOptions, etc bool) ([][]memslap.Results, error) {
	backends := KVSBackends()
	var jobs []sweep.Job[memslap.Results]
	for _, batch := range o.Batches {
		for _, backend := range backends {
			batch, backend := batch, backend
			jobs = append(jobs, sweep.Job[memslap.Results]{
				Label: fmt.Sprintf("kvs %s b=%d", backend, batch),
				Run: func() (memslap.Results, error) {
					return runKVSWith(backend, batch, o, etc)
				},
			})
		}
	}
	flat, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	out := make([][]memslap.Results, len(o.Batches))
	for i := range out {
		out[i] = flat[i*len(backends) : (i+1)*len(backends)]
	}
	return out, nil
}

// Fig11a reproduces Fig. 11a: end-to-end Multi-Get latency and server-side
// Get throughput (throughput of the hash-table-lookup phase, as the paper
// measures it) for MemC3 vs the two SIMD-aware backends.
func Fig11a(o KVSOptions) (*report.Table, error) {
	o = o.withDefaults()
	results, err := kvsSweep(o, false)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 11a: RDMA-Memcached Multi-Get — end-to-end latency & server-side Get throughput",
		"Batch", "Backend", "E2E avg (us)", "E2E p99 (us)", "Server Get thr (M/s)", "Thr vs MemC3", "Lat gain vs MemC3")
	for bi, batch := range o.Batches {
		var baseThr, baseLat float64
		for i, res := range results[bi] {
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
	return t, nil
}

// Fig11b reproduces Fig. 11b: the server-side timewise breakdown per
// Multi-Get request — pre-processing, hash-table lookup and post-processing
// sub-phases of the server data access phase.
func Fig11b(o KVSOptions) (*report.Table, error) {
	o = o.withDefaults()
	results, err := kvsSweep(o, false)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 11b: server-side per-batch phase breakdown",
		"Batch", "Backend", "Pre (us)", "Lookup (us)", "Post (us)", "Data access (us)", "vs MemC3")
	for bi, batch := range o.Batches {
		var base float64
		for i, res := range results[bi] {
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
	return t, nil
}

// ETCStudy runs the Multi-Get comparison with Facebook-ETC item sizes
// (variable keys in the tens of bytes, heavy-tailed values) instead of the
// fixed 20 B/32 B memslap configuration — the workload the paper's
// introduction motivates with. Larger, variable values shift time from the
// lookup phase into response assembly, so the SIMD edge shrinks relative to
// Fig. 11; the study quantifies by how much.
func ETCStudy(o KVSOptions) (*report.Table, error) {
	o = o.withDefaults()
	results, err := kvsSweep(o, true)
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
// Each (servers, batch) point is one sweep job owning its whole simulated
// cluster: an unreplicated, fault-free, closed-loop memslap.Fleet.
func ClusterStudy(o KVSOptions) (*report.Table, error) {
	o = o.withDefaults()
	type point struct {
		nservers, batch int
	}
	var points []point
	for _, nservers := range []int{1, 2, 4} {
		for _, batch := range o.Batches {
			points = append(points, point{nservers, batch})
		}
	}
	jobs := make([]sweep.Job[memslap.FleetResults], len(points))
	for i, pt := range points {
		pt := pt
		label := fmt.Sprintf("cluster s=%d b=%d", pt.nservers, pt.batch)
		jobs[i] = sweep.Job[memslap.FleetResults]{
			Label: label,
			Run: func() (memslap.FleetResults, error) {
				// Ceil division: flooring the per-server share can
				// undersize the index when Items doesn't divide evenly,
				// and an imbalanced ring would fail the load.
				capacity := (o.Items+pt.nservers-1)/pt.nservers + o.Items/4
				fleet, err := newFleet(o, o.Obs.Scope("config", label), nil, nil, pt.nservers, 1, capacity)
				if err != nil {
					return memslap.FleetResults{}, err
				}
				return memslap.RunFleet(fleet, memslap.FleetConfig{Config: memslap.Config{
					Clients:   o.Clients,
					BatchSize: pt.batch,
					Requests:  o.Requests,
					KeyBytes:  20,
					Seed:      o.Seed,
				}})
			},
		}
	}
	results, err := fanOut(o.Parallel, o.OnSweep, jobs)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: Multi-Get across a consistent-hashing cluster (vertical AVX-512 backend)",
		"Servers", "Batch", "Agg. thr (Mkeys/s)", "E2E avg (us)", "E2E p99 (us)", "Avg fanout")
	for i, res := range results {
		t.AddRow(points[i].nservers, points[i].batch,
			fmt.Sprintf("%.1f", res.ThroughputKeys/1e6),
			fmt.Sprintf("%.1f", res.AvgLatency*1e6),
			fmt.Sprintf("%.1f", res.P99Latency*1e6),
			fmt.Sprintf("%.2f", res.AvgFanout))
	}
	return t, nil
}
