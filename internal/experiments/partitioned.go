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
)

// newFleet builds and loads the hermetic simulation of one fleet-scale
// point: nservers vertical-SIMD servers with R-way replication on
// nservers+1 partitions (clients and coordinator on partition 0, server i
// on partition i+1), advanced by o.SimWorkers host goroutines (≤ 0 means
// one) with lookahead = the fabric's small-message latency. Server i holds
// an index of the given capacity seeded o.Seed+i, o.Workers workers and a
// 256-key batch cap, and runs plan.ForServer(i); the fleet loads o.Items
// items. It wires the per-partition state that keeps artifacts
// byte-identical at any worker count:
//
//   - each partition gets its own SimProbe and NetProbe under a "part" scope
//     (the des_now_seconds gauge is last-write-wins and the net profiler
//     keeps per-hop state, so both need a single writer),
//   - each partition gets its own fabric fault stream (fault.Plan.
//     ForPartition), so message-fault draws follow the partition's own
//     deterministic send order instead of a shared RNG, and
//   - each server gets its own "server" scope: crash-drop instants,
//     pressure bursts and batch spans are emitted from the server's
//     partition, so each server needs single-writer probe instances.
//
// overload, when non-nil, is every server's OverloadProbe. It is shared
// across partitions on purpose: it emits only atomic counter increments and
// a CAS max gauge — commutative, race-free, and byte-identical at any
// worker count.
func newFleet(o KVSOptions, col *obs.Collector, plan *fault.Plan, overload obs.OverloadProbe, nservers, replication, capacity int) (*memslap.Fleet, error) {
	cfg := netsim.EDR()
	pd := des.NewPartitioned(nservers+1, o.SimWorkers, cfg.SmallMessageLatency())
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

	servers := make([]*kvs.Server, nservers)
	for i := range servers {
		space := mem.NewAddressSpace()
		store := kvs.NewItemStore(space)
		idx, err := kvs.NewVerticalIndex(space, capacity, 256, o.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		srv := kvs.NewServer(pd.Sim(i+1), arch.SkylakeClusterB(), o.Workers, 256, idx, store)
		srv.Faults = plan.ForServer(i)
		srv.OverloadProbe = overload
		sc := col.Scope("server", fmt.Sprintf("s%d", i))
		if plan != nil {
			srv.FaultProbe = sc.FaultProbe()
		}
		srv.Probe = sc.ServerProbe()
		servers[i] = srv
	}
	fleet, err := memslap.NewFleet(pd.Sim(0), fabric, servers, replication)
	if err != nil {
		return nil, err
	}
	if _, err := fleet.LoadFleet(o.Items, 20, 32); err != nil {
		return nil, err
	}
	return fleet, nil
}

// replicatedCapacity sizes a server's index in an R-way replicated fleet of
// n servers: each server holds ~R/n of the keys, plus whatever churn piles
// on when a neighbor leaves; (R+1)/n ceil-divided plus headroom covers
// that, capped at the full set for narrow fleets.
func replicatedCapacity(items, n, replication int) int {
	return min((items*(replication+1)+n-1)/n, items) + items/8
}
