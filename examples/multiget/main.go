// multiget runs the full Section VI stack end to end: an RDMA-Memcached-
// style server with a SIMD-aware index serves memslap Multi-Get batches
// from closed-loop clients over a simulated InfiniBand EDR fabric.
//
// It demonstrates the public kvs/netsim/des/memslap APIs directly — loading
// items, issuing a functional Get, then measuring all three index backends
// under the paper's workload shape (20 B keys, 32 B values, skewed access,
// batches of 16). The one server is a one-server, unreplicated
// memslap.Fleet on the partitioned engine.
//
// Run with: go run ./examples/multiget
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
		items   = 100000
		workers = 26
		clients = 26
		batch   = 16
	)

	fmt.Println("Multi-Get over simulated IB EDR, 26 workers / 26 clients")
	fmt.Println()

	for _, backend := range []string{"memc3", "horizontal", "vertical"} {
		// Partition 0 runs the clients, partition 1 the server, advanced
		// by a single host worker.
		net := netsim.EDR()
		pd := des.NewPartitioned(2, 1, net.SmallMessageLatency())
		fabric := netsim.New(pd.Sim(0), net)
		fabric.Partition(pd)
		space := mem.NewAddressSpace()
		store := kvs.NewItemStore(space)

		var index kvs.Index
		var err error
		switch backend {
		case "memc3":
			index = kvs.NewMemC3Index(space, items, 1)
		case "horizontal":
			index, err = kvs.NewHorizontalIndex(space, items, 128, 1)
		case "vertical":
			index, err = kvs.NewVerticalIndex(space, items, 128, 1)
		}
		if err != nil {
			log.Fatal(err)
		}

		srv := kvs.NewServer(pd.Sim(1), arch.SkylakeClusterB(), workers, 128, index, store)
		fleet, err := memslap.NewFleet(pd.Sim(0), fabric, []*kvs.Server{srv}, 1)
		if err != nil {
			log.Fatal(err)
		}
		keys, err := fleet.LoadFleet(items, 20, 32)
		if err != nil {
			log.Fatal(err)
		}

		// Functional sanity check before measuring: the store really
		// stores.
		if v, ok := srv.Get(keys[0]); !ok || len(v) != 32 {
			log.Fatalf("functional Get failed for %q", keys[0])
		}

		res, err := memslap.RunFleet(fleet, memslap.FleetConfig{Config: memslap.Config{
			Clients:   clients,
			BatchSize: batch,
			Requests:  2000,
			KeyBytes:  20,
			Seed:      3,
		}})
		if err != nil {
			log.Fatal(err)
		}

		lookupThr := float64(batch) / res.Breakdown.Lookup
		fmt.Printf("%-28s  e2e avg %6.1f us  p99 %6.1f us  server Get thr %6.1f M/s\n",
			res.Backend, res.AvgLatency*1e6, res.P99Latency*1e6, lookupThr/1e6)
		fmt.Printf("%-28s  phases/batch: pre %.2f us | lookup %.2f us | post %.2f us\n",
			"", res.Breakdown.Pre*1e6, res.Breakdown.Lookup*1e6, res.Breakdown.Post*1e6)
		fmt.Println()
	}
}
