package experiments

import (
	"cmp"
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
	"simdhtbench/internal/sweep"
)

// fleetBatchCap is the Multi-Get cap of the multi-server studies' servers.
const fleetBatchCap = 256

// fleetShape is what one study's fleet differs in from another's.
type fleetShape struct {
	backend     string // index backend, one of KVSBackends()
	servers     int
	replication int
	capacity    int  // per-server index capacity
	batchCap    int  // per-server Multi-Get cap
	etc         bool // load Facebook-ETC item sizes instead of 20 B/32 B items
}

// kvsRun is one labelled run of a KVS study: the fleet it builds, the fault
// spec it runs under and the memslap config it drives. The label names the
// run's sweep job and its "config" obs scope.
type kvsRun struct {
	label  string
	shape  fleetShape
	faults fault.Spec
	cfg    memslap.FleetConfig
	// fleetProbe registers the FleetProbe and publishes the fleet_*
	// counts. The fleet and overload studies report replication events;
	// the one-server and cluster runs do not.
	fleetProbe bool
}

// run builds, loads and runs r under o. It is the only code in this package
// that compiles a fault plan, registers a run's probes, builds a fleet and
// drives it. The plan is r.faults compiled with o.FaultSeed, or with o.Seed
// when FaultSeed is 0, and r.cfg runs with o's Requests and Seed. The fault
// and client probes are registered iff the plan is armed and the FleetProbe
// iff r asks for it. A run that succeeds then publishes the model's counts
// (publish); one that fails publishes nothing.
func (r kvsRun) run(o KVSOptions) (memslap.FleetResults, error) {
	col := o.Obs.Scope("config", r.label)
	plan := r.faults.NewPlan(cmp.Or(o.FaultSeed, o.Seed))
	cfg := r.cfg
	cfg.Requests, cfg.Seed, cfg.Faults = o.Requests, o.Seed, plan
	if plan != nil {
		cfg.ClientProbe = col.ClientProbe()
	}
	if r.fleetProbe {
		cfg.FleetProbe = col.FleetProbe()
	}
	fleet, err := newFleet(o, col, plan, r.shape)
	if err != nil {
		return memslap.FleetResults{}, err
	}
	res, err := memslap.RunFleet(fleet, cfg)
	if err != nil {
		return memslap.FleetResults{}, err
	}
	r.publish(col, plan, fleet, res)
	return res, nil
}

// publish writes a finished run's counts into its scope col, once, each
// into the scope of the layer that keeps it; nothing else writes these
// series. Every partition's scope gets its Sim's events and clock and the
// fabric traffic sent from it, and every server's scope its Batches,
// KeysServed and KeysFound. When the plan is armed, the partitions also
// get their message faults, the servers their crash, slowdown and pressure
// counts, and the run res.Failovers as client_retries_total. The run gets
// the fleet_* counts of res when r registers a FleetProbe, and its
// overload_* counts when the plan arms an overload control
// (Plan.OverloadArmed). A nil col publishes nothing.
func (r kvsRun) publish(col *obs.Collector, plan *fault.Plan, fleet *memslap.Fleet, res memslap.FleetResults) {
	if col == nil {
		return
	}
	pd := fleet.Fabric.PartitionedEngine()
	for p := 0; p < pd.Parts(); p++ {
		pc, sim, net := partScope(col, p), pd.Sim(p), fleet.Fabric.PartitionCounts(p)
		pc.Counter("des_events_total").Add(sim.Dispatched())
		pc.Gauge("des_now_seconds").Set(sim.Now())
		pc.Counter("net_segments_total").Add(net.Sent)
		pc.Counter("net_bytes_total").Add(net.Bytes)
		if plan != nil {
			pc.Counter("fault_messages_dropped_total").Add(net.Dropped)
			pc.Counter("fault_messages_duplicated_total").Add(net.Duplicated)
			pc.Counter("fault_messages_delayed_total").Add(net.Delayed)
		}
	}
	for i, srv := range fleet.Servers {
		sc := serverScope(col, i)
		sc.Counter("server_batches_total").Add(srv.Batches)
		sc.Counter("server_keys_total").Add(srv.KeysServed)
		sc.Counter("server_keys_found_total").Add(srv.KeysFound)
		if plan != nil {
			sc.Counter("fault_crash_drops_total").Add(srv.CrashDrops)
			sc.Counter("fault_slowdowns_total").Add(srv.Slowdowns)
			sc.Counter("fault_pressure_inserted_total").Add(srv.PressureInserted)
			sc.Counter("fault_pressure_failed_total").Add(srv.PressureFailed)
		}
	}
	if plan != nil {
		col.Counter("client_retries_total").Add(res.Failovers)
	}
	if r.fleetProbe {
		col.Counter("fleet_epochs_total").Add(res.Epochs)
		col.Counter("fleet_failovers_total").Add(res.Failovers)
		col.Counter("fleet_keys_moved_total").Add(res.KeysMoved)
		col.Counter("fleet_keys_lost_total").Add(res.KeysLost)
	}
	if plan.OverloadArmed() {
		col.Counter("overload_shed_queue_full_total").Add(res.ShedQueueFull)
		col.Counter("overload_shed_deadline_total").Add(res.ShedDeadline)
		col.Gauge("overload_queue_highwater").Set(float64(res.QueueHighWater))
		col.Counter("overload_hedges_total").Add(res.Hedges)
		col.Counter("overload_hedge_wins_total").Add(res.HedgeWins)
		col.Counter("overload_budget_denied_total").Add(res.BudgetDenied)
		col.Counter("overload_client_rejects_total").Add(res.ClientRejects)
	}
}

// partScope is partition p's scope under a run's scope col.
func partScope(col *obs.Collector, p int) *obs.Collector {
	return col.Scope("part", fmt.Sprintf("p%d", p))
}

// serverScope is server i's scope under a run's scope col.
func serverScope(col *obs.Collector, i int) *obs.Collector {
	return col.Scope("server", fmt.Sprintf("s%d", i))
}

// runKVSRuns runs a KVS study's runs under o as one sweep, one job per run,
// and returns their results in the order of runs. Every job builds its own
// simulation, fabric, item stores, indexes and servers, so the fan-out
// changes nothing about the simulated numbers.
func runKVSRuns(o KVSOptions, runs []kvsRun) ([]memslap.FleetResults, error) {
	jobs := make([]sweep.Job[memslap.FleetResults], len(runs))
	for i, r := range runs {
		jobs[i] = sweep.Job[memslap.FleetResults]{Label: r.label, Run: func() (memslap.FleetResults, error) { return r.run(o) }}
	}
	return fanOut(o.Parallel, o.OnSweep, jobs)
}

// newFleet builds and loads the hermetic simulation of one study point:
// shape.servers servers with R-way replication on servers+1 partitions
// (clients and coordinator on partition 0, server i on partition i+1) with
// lookahead = the fabric's small-message latency. Server i holds a
// shape.backend index of shape.capacity seeded o.Seed+i, o.Workers workers
// and a shape.batchCap-key batch cap, and runs plan.ForServer(i); the fleet
// loads o.Items items (Fleet.LoadETC for an ETC shape, Fleet.LoadFleet's
// 20 B/32 B items otherwise). The artifacts follow the partition
// decomposition:
//
//   - each partition gets its own "part" scope (partScope) for its
//     NetProbe, its fault instants and the counts kvsRun.publish writes
//     there,
//   - each partition gets its own fabric fault stream (fault.Plan.
//     ForPartition), so message-fault draws follow the partition's own
//     send order instead of a shared RNG,
//   - each server gets its own "server" scope (serverScope) for its
//     crash-drop instants, pressure bursts, batch spans and worker-queue
//     waits, and for the counts kvsRun.publish writes there, and
//   - o.Heartbeat, when set, ticks on every partition, once per dispatched
//     event.
func newFleet(o KVSOptions, col *obs.Collector, plan *fault.Plan, shape fleetShape) (*memslap.Fleet, error) {
	cfg := netsim.EDR()
	pd := des.NewPartitioned(shape.servers+1, 1, cfg.SmallMessageLatency())
	fabric := netsim.New(pd.Sim(0), cfg)
	fabric.Partition(pd)
	for p := 0; p < pd.Parts(); p++ {
		pc := partScope(col, p)
		pd.Sim(p).Heartbeat = o.Heartbeat
		fabric.SetPartitionProbe(p, pc.NetProbe())
		if plan != nil {
			fabric.SetPartitionFaults(p, plan.ForPartition(p), pc.FaultProbe())
		}
	}

	servers := make([]*kvs.Server, shape.servers)
	for i := range servers {
		space := mem.NewAddressSpace()
		store := kvs.NewItemStore(space)
		idx, err := newIndex(shape.backend, space, shape.capacity, shape.batchCap, o.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		srv := kvs.NewServer(pd.Sim(i+1), arch.SkylakeClusterB(), o.Workers, shape.batchCap, idx, store)
		srv.Faults = plan.ForServer(i)
		sc := serverScope(col, i)
		if plan != nil {
			srv.FaultProbe = sc.FaultProbe()
		}
		srv.Probe = sc.ServerProbe()
		if pr := sc.Profiler("us"); pr != nil {
			// Attribute worker-pool queueing delay under server/queue in
			// the time account, from the server's own partition.
			h := pr.Child(pr.Child(prof.Root, "server"), "queue")
			srv.Workers.OnWait = func(seconds float64) {
				v := seconds * 1e6
				pr.AddSelf(h, v)
				pr.AddTotal(v)
			}
		}
		servers[i] = srv
	}
	fleet, err := memslap.NewFleet(pd.Sim(0), fabric, servers, shape.replication)
	if err != nil {
		return nil, err
	}
	if shape.etc {
		_, err = fleet.LoadETC(o.Items, o.Seed)
	} else {
		_, err = fleet.LoadFleet(o.Items, 20, 32)
	}
	if err != nil {
		return nil, err
	}
	return fleet, nil
}

// newIndex builds an index of the named backend.
func newIndex(backend string, space *mem.AddressSpace, capacity, batchCap int, seed int64) (kvs.Index, error) {
	switch backend {
	case "memc3":
		return kvs.NewMemC3Index(space, capacity, seed), nil
	case "horizontal":
		return kvs.NewHorizontalIndex(space, capacity, batchCap, seed)
	case "vertical":
		return kvs.NewVerticalIndex(space, capacity, batchCap, seed)
	}
	return nil, fmt.Errorf("experiments: unknown KVS backend %q", backend)
}

// replicatedCapacity sizes a server's index in an R-way replicated fleet of
// n servers: each server holds ~R/n of the keys, plus whatever churn piles
// on when a neighbor leaves; (R+1)/n ceil-divided plus headroom covers
// that, capped at the full set for narrow fleets.
func replicatedCapacity(items, n, replication int) int {
	return min((items*(replication+1)+n-1)/n, items) + items/8
}
