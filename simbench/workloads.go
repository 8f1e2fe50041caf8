package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/workload"
)

// Fleet fault specs. The churn spec is the fleet study's default (rolling
// crash windows that also leave the ring, the timeout/retry protocol, a
// little network loss). The overload spec is the controls-on spec that
// experiments.OverloadStudyResult derives for the overload-2x fleet at
// seed 7 (capacity 1.777e6 Multi-Gets/s), fixed here as a literal so the
// workload does not depend on a capacity run.
const (
	churnSpec    = "drop=0.002,crash=5ms:1ms,timeout=100µs,retries=3,backoff=20µs"
	overloadSpec = "timeout=80µs,retries=3,backoff=20µs,qdepth=13,qdeadline=60µs,budget=10,hedge=40µs"
	// overloadArrival is twice that measured capacity, in Multi-Gets per
	// virtual second.
	overloadArrival = 3.5546806e6
)

// workloadDefs builds each workload at the given size ("full" for the
// benchmark, "tiny" for smoke tests).
var workloadDefs = map[string]func(size string, seed int64) benchWorkload{
	// Read-only lookups on a 3-way cuckoo table that fits the modelled L2.
	"lookup-l2": func(size string, seed int64) benchWorkload {
		c := microConfig{
			model: arch.SkylakeClusterA, n: 3, m: 1, keyBits: 32, valBits: 32,
			tableBytes: 1 << 20, loadFactor: 0.9, pattern: workload.Uniform, hitRate: 0.9,
			queries: 60_000, warmup: 12_000,
		}
		if size == "tiny" {
			c.tableBytes, c.queries, c.warmup = 64<<10, 4000, 1000
		}
		return &microWorkload{cfg: c, seed: seed}
	},
	// 25% payload updates beside skewed lookups on a (2,4) BCHT larger
	// than the modelled L3.
	"update-dram": func(size string, seed int64) benchWorkload {
		c := microConfig{
			model: arch.SkylakeClusterA, n: 2, m: 4, keyBits: 64, valBits: 64,
			tableBytes: 32 << 20, loadFactor: 0.9, chargedFrom: 0.88, pattern: workload.Skewed, hitRate: 0.9,
			queries: 40_000, warmup: 8_000, updateFraction: 0.25,
		}
		if size == "tiny" {
			c.tableBytes, c.queries, c.warmup = 256<<10, 4000, 1000
		}
		return &microWorkload{cfg: c, seed: seed}
	},
	// A replicated fleet under rolling churn, open loop, on the partitioned
	// engine.
	"fleet-churn": func(size string, seed int64) benchWorkload {
		c := fleetConfig{
			servers: 8, replication: 3, workers: 4, clients: 8, batch: 16,
			items: 20000, requests: 2400, arrival: 2e5, writes: 0.05,
			faults: churnSpec, churn: true, simWorkers: 2,
		}
		if size == "tiny" {
			c.items, c.requests = 2000, 300
		}
		return &fleetWorkload{cfg: c, seed: seed}
	},
	// A saturated fleet at twice its capacity with the overload controls on.
	"overload-2x": func(size string, seed int64) benchWorkload {
		c := fleetConfig{
			servers: 4, replication: 2, workers: 4, clients: 32, batch: 64,
			items: 20000, requests: 2000, arrival: overloadArrival,
			faults: overloadSpec, simWorkers: 2,
		}
		if size == "tiny" {
			c.items, c.requests = 2000, 300
		}
		return &fleetWorkload{cfg: c, seed: seed}
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadDefs))
	for n := range workloadDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newWorkload(name, size string, seed int64) (benchWorkload, error) {
	def, ok := workloadDefs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	if size != "full" && size != "tiny" {
		return nil, fmt.Errorf("unknown size %q (have full, tiny)", size)
	}
	return def(size, seed), nil
}

func jsonIndent(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
