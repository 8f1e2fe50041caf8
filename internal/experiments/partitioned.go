package experiments

import (
	"fmt"

	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/netsim"
	"simdhtbench/internal/obs"
)

// fleetSim builds the partitioned simulation substrate for one fleet-scale
// point: nservers+1 partitions (clients and coordinator on partition 0,
// server i on partition i+1), advanced by simWorkers host goroutines (≤ 0
// means one) with lookahead = the fabric's small-message latency. It wires
// the per-partition state that keeps artifacts byte-identical at any worker
// count:
//
//   - each partition gets its own SimProbe and NetProbe under a "part" scope
//     (the des_now_seconds gauge is last-write-wins and the net profiler
//     keeps per-hop state, so both need a single writer), and
//   - each partition gets its own fabric fault stream (fault.Plan.
//     ForPartition), so message-fault draws follow the partition's own
//     deterministic send order instead of a shared RNG.
//
// Server i runs on pd.Sim(i+1); the fleet's own sim is pd.Sim(0).
func fleetSim(nservers, simWorkers int, col *obs.Collector, plan *fault.Plan, hb *obs.Heartbeat) (*des.Partitioned, *netsim.Fabric) {
	cfg := netsim.EDR()
	pd := des.NewPartitioned(nservers+1, simWorkers, cfg.SmallMessageLatency())
	pd.Sim(0).Heartbeat = hb // stderr-only liveness; one partition at most
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
	return pd, fabric
}
