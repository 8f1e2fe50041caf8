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

// newFleet builds and loads the hermetic simulation of one study point:
// shape.servers servers with R-way replication on servers+1 partitions
// (clients and coordinator on partition 0, server i on partition i+1),
// advanced by o.SimWorkers host goroutines (≤ 0 means one) with lookahead =
// the fabric's small-message latency. Server i holds a shape.backend index
// of shape.capacity seeded o.Seed+i, o.Workers workers and a
// shape.batchCap-key batch cap, and runs plan.ForServer(i); the fleet loads
// o.Items items (Fleet.LoadETC for an ETC shape, Fleet.LoadFleet's 20 B/32 B
// items otherwise). It wires the per-partition state that keeps artifacts
// byte-identical at any worker count:
//
//   - each partition gets its own SimProbe and NetProbe under a "part" scope
//     (the des_now_seconds gauge is last-write-wins and the net profiler
//     keeps per-hop state, so both need a single writer),
//   - each partition gets its own fabric fault stream (fault.Plan.
//     ForPartition), so message-fault draws follow the partition's own
//     deterministic send order instead of a shared RNG, and
//   - each server gets its own "server" scope: crash-drop instants,
//     pressure bursts, batch spans and worker-queue waits are emitted from
//     the server's partition, so each server needs single-writer probe and
//     profiler instances.
//
// overload, when non-nil, is every server's OverloadProbe. It is shared
// across partitions on purpose: it emits only atomic counter increments and
// a CAS max gauge — commutative, race-free, and byte-identical at any
// worker count.
func newFleet(o KVSOptions, col *obs.Collector, plan *fault.Plan, overload obs.OverloadProbe, shape fleetShape) (*memslap.Fleet, error) {
	cfg := netsim.EDR()
	pd := des.NewPartitioned(shape.servers+1, o.SimWorkers, cfg.SmallMessageLatency())
	pd.Sim(0).Heartbeat = o.Heartbeat // stderr-only liveness; one partition at most
	fabric := netsim.New(pd.Sim(0), cfg)
	fabric.Partition(pd)
	for p := 0; p < pd.Parts(); p++ {
		pc := col.Scope("part", fmt.Sprintf("p%d", p))
		pd.Sim(p).Probe = pc.SimProbe()
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
		srv.OverloadProbe = overload
		sc := col.Scope("server", fmt.Sprintf("s%d", i))
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
