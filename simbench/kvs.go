package main

import (
	"fmt"
	"math"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/netsim"
)

// fleetConfig sizes a replicated-fleet workload: the calls
// experiments.FleetStudyPoint makes on the partitioned engine (clients and
// coordinator on partition 0, server i on partition i+1), driven from
// outside.
type fleetConfig struct {
	servers     int
	replication int
	workers     int // worker threads per server
	clients     int
	batch       int
	items       int
	requests    int     // measured Multi-Gets (warm-up adds a fifth)
	arrival     float64 // open-loop Multi-Gets per virtual second
	writes      float64 // share of requests that are quorum writes
	faults      string  // fault.Spec
	churn       bool    // rolling ring membership churn from the crash windows
	simWorkers  int     // host goroutines advancing the partitions
}

// fleetWorkload is the state one setup builds: a loaded fleet ready for one
// RunFleet call, which consumes it.
type fleetWorkload struct {
	cfg  fleetConfig
	seed int64

	plan    *fault.Plan
	pd      *des.Partitioned
	fabric  *netsim.Fabric
	servers []*kvs.Server
	fleet   *memslap.Fleet
}

func (w *fleetWorkload) consumesSetup() bool { return true }

func (w *fleetWorkload) release() { *w = fleetWorkload{cfg: w.cfg, seed: w.seed} }

// setup builds the partitioned simulation, the servers with their
// vertical-SIMD indexes, and the fleet, and loads every item on its
// replicas.
func (w *fleetWorkload) setup(tr *tracer) error {
	c := w.cfg
	spec, err := fault.ParseSpec(c.faults)
	if err != nil {
		return err
	}
	w.plan = spec.NewPlan(w.seed)

	tr.begin("des.new")
	netCfg := netsim.EDR()
	w.pd = des.NewPartitioned(c.servers+1, c.simWorkers, netCfg.SmallMessageLatency())
	tr.end(w.pd.Parts())

	tr.begin("netsim.new")
	w.fabric = netsim.New(w.pd.Sim(0), netCfg)
	w.fabric.Partition(w.pd)
	if w.plan != nil {
		for p := 0; p < w.pd.Parts(); p++ {
			w.fabric.SetPartitionFaults(p, w.plan.ForPartition(p), nil)
		}
	}
	tr.end(w.pd.Parts())

	tr.begin("kvs.build")
	w.servers = make([]*kvs.Server, c.servers)
	for i := range w.servers {
		space := mem.NewAddressSpace()
		store := kvs.NewItemStore(space)
		// Room for R/n of the items plus what churn piles on, as the fleet
		// study sizes it.
		capacity := min((c.items*(c.replication+1)+c.servers-1)/c.servers, c.items) + c.items/8
		idx, err := kvs.NewVerticalIndex(space, capacity, 256, w.seed+int64(i))
		if err != nil {
			tr.end(i)
			return err
		}
		w.servers[i] = kvs.NewServer(w.pd.Sim(i+1), arch.SkylakeClusterB(), c.workers, 256, idx, store)
		w.servers[i].Faults = w.plan.ForServer(i)
	}
	w.fleet, err = memslap.NewFleet(w.pd.Sim(0), w.fabric, w.servers, c.replication)
	tr.end(c.servers)
	if err != nil {
		return err
	}

	tr.begin("memslap.load")
	_, err = w.fleet.LoadFleet(c.items, 20, 32)
	tr.end(c.items)
	return err
}

// pass drives the fleet once, checks its accounting, and reads every
// counter the layers export.
func (w *fleetWorkload) pass(tr *tracer) (passResult, error) {
	c := w.cfg
	if w.fleet == nil {
		return passResult{}, fmt.Errorf("fleet pass without a fresh setup")
	}
	fleet := w.fleet
	w.fleet = nil

	tr.begin("memslap.run")
	start := nowSeconds()
	res, err := memslap.RunFleet(fleet, memslap.FleetConfig{
		Config: memslap.Config{
			Clients: c.clients, BatchSize: c.batch, Requests: c.requests,
			KeyBytes: 20, Seed: w.seed, Faults: w.plan,
		},
		ArrivalRate:   c.arrival,
		WriteFraction: c.writes,
		Churn:         c.churn,
	})
	elapsed := nowSeconds() - start
	tr.end(c.requests)
	if err != nil {
		return passResult{}, err
	}

	writes := res.Writes + res.WritesFailed
	reads := uint64(res.Requests) - writes
	requested := float64(reads) * float64(c.batch)
	pr := passResult{measureS: elapsed, keys: requested}

	// Server-side counters, summed over the fleet.
	var batches, keysServed, keysFound, replicaItems, shedQ, shedDL, crashDrops uint64
	var grants, rejected uint64
	var util float64
	highWater := 0
	var phases kvs.PhaseBreakdown
	for _, s := range w.servers {
		batches += s.Batches
		keysServed += s.KeysServed
		keysFound += s.KeysFound
		replicaItems += s.ReplicaItems
		shedQ += s.ShedQueueFull
		shedDL += s.ShedDeadline
		crashDrops += s.CrashDrops
		grants += s.Workers.Grants()
		rejected += s.Workers.Rejected()
		util += s.Workers.Utilization()
		highWater = max(highWater, s.Workers.QueueHighWater())
		phases.Pre += s.PhaseTotals.Pre
		phases.Lookup += s.PhaseTotals.Lookup
		phases.Post += s.PhaseTotals.Post
	}
	util /= float64(len(w.servers))
	offered := grants + rejected

	// Conservation checks: keys requested = returned + missing, sheds within
	// the batches offered, and every counter within its population.
	returned := requested * ratio(res.GoodputKeys, res.ThroughputKeys)
	pr.attempted = int64(requested) + int64(writes)
	pr.failed = int64(math.Round(math.Abs(requested - returned - float64(res.KeysMissing))))
	violations := []bool{
		shedQ+shedDL > offered,
		shedQ != rejected,
		res.Degraded > uint64(res.Requests),
		res.KeysMissing > uint64(requested),
		res.HedgeWins > res.Hedges,
		res.Requests != c.requests,
	}
	for _, bad := range violations {
		if bad {
			pr.failed++
		}
	}

	// The server's simulated service time converts to cycles at the
	// vertical AVX-512 index's license frequency.
	model := arch.SkylakeClusterB()
	serverCycles := phases.Total() * model.Frequency(arch.WidthAVX512) * 1e9

	sim := &pr.sim
	for _, kv := range []struct {
		name string
		v    float64
	}{
		{"fleet.requests", float64(res.Requests)},
		{"fleet.throughput_keys", res.ThroughputKeys},
		{"fleet.goodput_keys", res.GoodputKeys},
		{"fleet.avg_latency", res.AvgLatency},
		{"fleet.p50_latency", res.P50Latency},
		{"fleet.p99_latency", res.P99Latency},
		{"fleet.p999_latency", res.P999Latency},
		{"fleet.hit_rate", res.HitRate},
		{"fleet.avg_fanout", res.AvgFanout},
		{"fleet.avg_queue_delay", res.AvgQueueDelay},
		{"fleet.p99_queue_delay", res.P99QueueDelay},
		{"fleet.measured_rate", res.MeasuredRate},
		{"fleet.retries", float64(res.Retries)},
		{"fleet.timeouts", float64(res.Timeouts)},
		{"fleet.degraded", float64(res.Degraded)},
		{"fleet.keys_missing", float64(res.KeysMissing)},
		{"fleet.epochs", float64(res.Epochs)},
		{"fleet.keys_moved", float64(res.KeysMoved)},
		{"fleet.keys_lost", float64(res.KeysLost)},
		{"fleet.repairs", float64(res.Repairs)},
		{"fleet.failovers", float64(res.Failovers)},
		{"fleet.writes", float64(res.Writes)},
		{"fleet.writes_failed", float64(res.WritesFailed)},
		{"fleet.shed_queue_full", float64(res.ShedQueueFull)},
		{"fleet.shed_deadline", float64(res.ShedDeadline)},
		{"fleet.hedges", float64(res.Hedges)},
		{"fleet.hedge_wins", float64(res.HedgeWins)},
		{"fleet.budget_denied", float64(res.BudgetDenied)},
		{"fleet.queue_high_water", float64(res.QueueHighWater)},
		{"kvs.batches", float64(batches)},
		{"kvs.keys_served", float64(keysServed)},
		{"kvs.keys_found", float64(keysFound)},
		{"kvs.replica_items", float64(replicaItems)},
		{"kvs.crash_drops", float64(crashDrops)},
		{"kvs.grants", float64(grants)},
		{"kvs.rejected", float64(rejected)},
		{"kvs.utilization", util},
		{"kvs.phase_pre", phases.Pre},
		{"kvs.phase_lookup", phases.Lookup},
		{"kvs.phase_post", phases.Post},
		{"des.events", float64(w.pd.Dispatched())},
		{"netsim.msgs", float64(w.fabric.MessagesSent())},
		{"netsim.bytes", float64(w.fabric.BytesSent())},
		{"netsim.dropped", float64(w.fabric.MessagesDropped())},
		{"netsim.dup", float64(w.fabric.MessagesDuplicated())},
		{"netsim.delayed", float64(w.fabric.MessagesDelayed())},
	} {
		sim.add(kv.name, kv.v)
	}

	pr.e2e = map[string]float64{
		"sim_goodput_mkeys_s": res.GoodputKeys / 1e6,
		"sim_cycles_per_key":  ratio(serverCycles, float64(keysServed)),
	}
	n := res.Requests
	pr.extra = []extraMetric{
		{name: "sim_p50_us", unit: "us", value: res.P50Latency * 1e6, samples: n, perMille: 500},
		{name: "sim_p99_us", unit: "us", value: res.P99Latency * 1e6, samples: n, perMille: 990},
		{name: "sim_p999_us", unit: "us", value: res.P999Latency * 1e6, samples: n, perMille: 999},
		{name: "sim_failed_keys", unit: "count", value: float64(res.KeysMissing), note: "keys never returned (degraded or shed), modelled"},
	}
	pr.notes = []string{"open loop: arrivals are events in virtual time, so the generator is never late"}
	pr.simFailed = float64(res.KeysMissing) + float64(res.WritesFailed)
	pr.layer = map[string]float64{
		"des.events":                 float64(w.pd.Dispatched()),
		"netsim.msgs":                float64(w.fabric.MessagesSent()),
		"netsim.mbytes":              float64(w.fabric.BytesSent()) / 1e6,
		"netsim.dropped":             float64(w.fabric.MessagesDropped()),
		"netsim.dup":                 float64(w.fabric.MessagesDuplicated()),
		"kvs.batches":                float64(batches),
		"kvs.keys_served":            float64(keysServed),
		"kvs.worker_util":            util,
		"kvs.queue_high_water":       float64(highWater),
		"kvs.shed_queue_full":        float64(shedQ),
		"kvs.shed_deadline":          float64(shedDL),
		"kvs.admit_ratio":            ratio(float64(offered-shedQ-shedDL), float64(offered)),
		"kvs.replica_items":          float64(replicaItems),
		"memslap.retries":            float64(res.Retries),
		"memslap.timeouts":           float64(res.Timeouts),
		"memslap.failovers":          float64(res.Failovers),
		"memslap.repairs":            float64(res.Repairs),
		"memslap.epochs":             float64(res.Epochs),
		"memslap.keys_moved":         float64(res.KeysMoved),
		"memslap.writes":             float64(res.Writes),
		"memslap.writes_failed":      float64(res.WritesFailed),
		"memslap.p99_queue_delay_us": res.P99QueueDelay * 1e6,
		"memslap.hedges":             float64(res.Hedges),
		"memslap.hedge_win_ratio":    ratio(float64(res.HedgeWins), float64(res.Hedges)),
		"memslap.budget_denied":      float64(res.BudgetDenied),
		"memslap.goodput_ratio":      ratio(res.GoodputKeys, res.ThroughputKeys),
	}
	return pr, nil
}
