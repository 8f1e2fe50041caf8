// cluster runs the complete Section VI-A pipeline across a Memcached server
// cluster: clients map each Multi-Get's keys to servers with consistent
// hashing (kvs.Ring), send one sub-batch per owning server over the
// simulated EDR fabric, and complete when the last sub-response arrives.
// The cluster is an unreplicated memslap.Fleet on the partitioned engine.
//
// It demonstrates the multiget trade-off: adding servers multiplies
// aggregate throughput and parallelizes each request, but shrinks the
// per-server sub-batches that make SIMD lookups and network transfers
// efficient.
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/netsim"
)

func main() {
	const (
		items   = 120000
		batch   = 32
		clients = 26
		workers = 26
	)

	fmt.Println("Multi-Get across a consistent-hashing cluster (Cuckoo-Ver AVX-512 backend)")
	fmt.Println()

	for _, nservers := range []int{1, 2, 4} {
		// One partition for the clients plus one per server, advanced by a
		// single host worker.
		net := netsim.EDR()
		pd := des.NewPartitioned(nservers+1, 1, net.SmallMessageLatency())
		fabric := netsim.New(pd.Sim(0), net)
		fabric.Partition(pd)

		servers := make([]*kvs.Server, nservers)
		for i := range servers {
			space := mem.NewAddressSpace()
			store := kvs.NewItemStore(space)
			index, err := kvs.NewVerticalIndex(space, items/nservers+items/4, 256, int64(i+1))
			if err != nil {
				log.Fatal(err)
			}
			servers[i] = kvs.NewServer(pd.Sim(i+1), arch.SkylakeClusterB(), workers, 256, index, store)
		}

		// Replication 1: each key lives only on its ring owner.
		fleet, err := memslap.NewFleet(pd.Sim(0), fabric, servers, 1)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := fleet.LoadFleet(items, 20, 32); err != nil {
			log.Fatal(err)
		}

		res, err := memslap.RunFleet(fleet, memslap.FleetConfig{Config: memslap.Config{
			Clients:   clients,
			BatchSize: batch,
			Requests:  2500,
			KeyBytes:  20,
			Seed:      9,
		}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d server(s): %7.1f Mkeys/s aggregate | e2e avg %5.1f us p99 %5.1f us | fanout %.2f\n",
			nservers, res.ThroughputKeys/1e6, res.AvgLatency*1e6, res.P99Latency*1e6, res.AvgFanout)
	}

	fmt.Println()
	fmt.Println("Aggregate throughput scales with servers while per-request latency")
	fmt.Println("drops (sub-batches run in parallel) — at the price of smaller")
	fmt.Println("per-server batches for the SIMD lookup phase to amortize over.")
}
