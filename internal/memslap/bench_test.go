package memslap

import (
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/netsim"
)

// runFleetBench is one fleet shape of BenchmarkRunFleet. The two shapes
// copy simbench's fleet-churn and overload-2x workloads at seed 1 (simbench
// is its own module, so they are literals here).
type runFleetBench struct {
	name                                   string
	servers, replication, workers, clients int
	batch, items, requests                 int
	arrival, writes                        float64
	faults                                 string
	churn                                  bool
}

var runFleetBenches = []runFleetBench{
	{name: "fleet-churn", servers: 8, replication: 3, workers: 4, clients: 8, batch: 16,
		items: 20000, requests: 2400, arrival: 2e5, writes: 0.05,
		faults: "drop=0.002,crash=5ms:1ms,timeout=100µs,retries=3,backoff=20µs", churn: true},
	{name: "overload-2x", servers: 4, replication: 2, workers: 4, clients: 32, batch: 64,
		items: 20000, requests: 2000, arrival: 3.5546806e6,
		faults: "timeout=80µs,retries=3,backoff=20µs,qdepth=13,qdeadline=60µs,budget=10,hedge=40µs"},
}

// build makes and loads the fleet simbench's setup builds, with the fault
// plan armed on the fabric and the servers.
func (c runFleetBench) build(b *testing.B, seed int64) (*Fleet, *fault.Plan) {
	spec, err := fault.ParseSpec(c.faults)
	if err != nil {
		b.Fatal(err)
	}
	plan := spec.NewPlan(seed)
	netCfg := netsim.EDR()
	pd := des.NewPartitioned(c.servers+1, 1, netCfg.SmallMessageLatency())
	fabric := netsim.New(pd.Sim(0), netCfg)
	fabric.Partition(pd)
	for p := 0; p < pd.Parts(); p++ {
		fabric.SetPartitionFaults(p, plan.ForPartition(p), nil)
	}
	servers := make([]*kvs.Server, c.servers)
	capacity := min((c.items*(c.replication+1)+c.servers-1)/c.servers, c.items) + c.items/8
	for i := range servers {
		space := mem.NewAddressSpace()
		idx, err := kvs.NewVerticalIndex(space, capacity, 256, seed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = kvs.NewServer(pd.Sim(i+1), arch.SkylakeClusterB(), c.workers, 256, idx, kvs.NewItemStore(space))
		servers[i].Faults = plan.ForServer(i)
	}
	fleet, err := NewFleet(pd.Sim(0), fabric, servers, c.replication)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fleet.LoadFleet(c.items, 20, 32); err != nil {
		b.Fatal(err)
	}
	return fleet, plan
}

var runFleetSink FleetResults

// BenchmarkRunFleet times RunFleet alone on simbench's two fleet workloads:
// each iteration builds and loads a fresh fleet with the timer stopped, so
// B/op and allocs/op are the run's own, not the setup's.
func BenchmarkRunFleet(b *testing.B) {
	const seed = 1
	for _, c := range runFleetBenches {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fleet, plan := c.build(b, seed)
				b.StartTimer()
				res, err := RunFleet(fleet, FleetConfig{
					Config: Config{
						Clients: c.clients, BatchSize: c.batch, Requests: c.requests,
						KeyBytes: 20, Seed: seed, Faults: plan,
					},
					ArrivalRate:   c.arrival,
					WriteFraction: c.writes,
					Churn:         c.churn,
				})
				if err != nil {
					b.Fatal(err)
				}
				runFleetSink = res
			}
		})
	}
}

var fleetLoadSink [][]byte

// BenchmarkFleetLoad times LoadFleet alone: each iteration builds a fresh,
// empty fleet with the timer stopped, so B/op and allocs/op are the load's
// own. The shapes are simbench's fleet-churn fleet (8 servers, R=3) and
// overload-2x fleet (4 servers, R=2), both of 20,000 items, and the widest
// point of kvsbench's fleet study, with indexes sized as simbench and
// BenchmarkAdvanceRing size them: each server's R/n share plus slack.
func BenchmarkFleetLoad(b *testing.B) {
	for _, c := range []struct {
		name                 string
		servers, items, repl int
	}{
		{"servers=8", 8, 20000, 3},
		{"servers=4", 4, 20000, 2},
		{"servers=64", 64, 200000, 3},
	} {
		b.Run(c.name, func(b *testing.B) {
			capacity := min((c.items*(c.repl+1)+c.servers-1)/c.servers, c.items) + c.items/8
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fleet := buildFleetIndex(b, c.servers, c.repl, func(space *mem.AddressSpace, i int) (kvs.Index, error) {
					return kvs.NewVerticalIndex(space, capacity, 128, int64(i+1))
				})
				b.StartTimer()
				keys, err := fleet.LoadFleet(c.items, 20, 32)
				if err != nil {
					b.Fatal(err)
				}
				fleetLoadSink = keys
			}
		})
	}
}
