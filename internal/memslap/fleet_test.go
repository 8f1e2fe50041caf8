package memslap

import (
	"errors"
	"math"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/netsim"
)

// buildFleet builds a loaded fleet on a one-worker partitioned engine.
func buildFleet(t *testing.T, servers, items, replication int) *Fleet {
	t.Helper()
	return buildFleetWorkers(t, 1, servers, items, replication)
}

// buildFleetWorkers builds a loaded fleet whose server i has a vertical
// index with seed i+1, four workers and a 128-key batch cap. Every server's
// index has room for the full key set: replication and rebalance may land
// any key anywhere.
func buildFleetWorkers(t *testing.T, simWorkers, servers, items, replication int) *Fleet {
	t.Helper()
	fleet := buildFleetIndex(t, simWorkers, servers, replication, func(space *mem.AddressSpace, i int) (kvs.Index, error) {
		return kvs.NewVerticalIndex(space, items, 128, int64(i+1))
	})
	if _, err := fleet.LoadFleet(items, 20, 32); err != nil {
		t.Fatal(err)
	}
	return fleet
}

// buildFleetIndex builds an unloaded fleet whose server i runs index(space,
// i) with four workers and a 128-key batch cap, on an engine with one
// client/coordinator partition plus one per server, advanced by simWorkers
// host goroutines.
func buildFleetIndex(t *testing.T, simWorkers, servers, replication int, index func(space *mem.AddressSpace, i int) (kvs.Index, error)) *Fleet {
	t.Helper()
	cfg := netsim.EDR()
	pd := des.NewPartitioned(servers+1, simWorkers, cfg.SmallMessageLatency())
	fabric := netsim.New(pd.Sim(0), cfg)
	fabric.Partition(pd)
	srvs := make([]*kvs.Server, servers)
	for i := range srvs {
		space := mem.NewAddressSpace()
		idx, err := index(space, i)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = kvs.NewServer(pd.Sim(i+1), arch.SkylakeClusterB(), 4, 128, idx, kvs.NewItemStore(space))
	}
	fleet, err := NewFleet(pd.Sim(0), fabric, srvs, replication)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// The differential wall: a zero-fault, closed-loop, replication=1 fleet
// must reproduce, bit for bit, the results the retired serial multi-server
// driver (RunCluster) measured on the same fixture. Its results are kept as
// exact hexadecimal literals, so the oracle outlives its code; the fleet
// must match them at every host worker count.
func checkFleetDifferential(t *testing.T, servers, items int, cfg Config, want FleetResults) {
	t.Helper()
	for _, workers := range []int{1, 2} {
		got, err := RunFleet(buildFleetWorkers(t, workers, servers, items, 1), FleetConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if got.Epochs != 0 || got.KeysMoved != 0 || got.Repairs != 0 || got.Failovers != 0 || got.Writes != 0 {
			t.Fatalf("quiescent fleet reported churn activity: %+v", got)
		}
		// The serial driver reported only these fields.
		shared := FleetResults{
			Servers: got.Servers, BatchSize: got.BatchSize, Requests: got.Requests,
			ThroughputKeys: got.ThroughputKeys, AvgLatency: got.AvgLatency, P99Latency: got.P99Latency,
			HitRate: got.HitRate, AvgFanout: got.AvgFanout,
			Retries: got.Retries, Timeouts: got.Timeouts, Degraded: got.Degraded,
			KeysMissing: got.KeysMissing, GoodputKeys: got.GoodputKeys,
		}
		if shared != want {
			t.Fatalf("fleet (R=1, closed loop, no faults, %d workers) diverged from the recorded RunCluster results:\n fleet  %+v\n legacy %+v", workers, shared, want)
		}
	}
}

func TestFleetDifferentialMatchesRunCluster(t *testing.T) {
	checkFleetDifferential(t, 3, 3000,
		Config{Clients: 6, BatchSize: 16, Requests: 300, KeyBytes: 20, Seed: 4},
		FleetResults{
			Servers: 3, BatchSize: 16, Requests: 300,
			ThroughputKeys: 0x1.23b816ffcedd6p+25, AvgLatency: 0x1.4fa39551cd3bbp-19,
			P99Latency: 0x1.9026bfe487558p-19, HitRate: 0x1p+00, AvgFanout: 0x1.8p+01,
			GoodputKeys: 0x1.23b816ffcedd6p+25,
		})
}

// The differential must also hold at other shapes (different seed, batch,
// fleet width) — one lucky match is not equivalence.
func TestFleetDifferentialMatchesRunClusterWide(t *testing.T) {
	checkFleetDifferential(t, 5, 4000,
		Config{Clients: 4, BatchSize: 32, Requests: 200, KeyBytes: 20, Seed: 11},
		FleetResults{
			Servers: 5, BatchSize: 32, Requests: 200,
			ThroughputKeys: 0x1.4e3586e9b842ap+25, AvgLatency: 0x1.856078cabc9d7p-19,
			P99Latency: 0x1.cf1c2673fd4cp-19, HitRate: 0x1p+00, AvgFanout: 0x1.3fae147ae147bp+02,
			GoodputKeys: 0x1.4e3586e9b842ap+25,
		})
}

// LoadFleet places each key on all R replicas and the loaded key sequence
// matches a one-server fleet's exactly.
func TestLoadFleetReplicatesKeys(t *testing.T) {
	fleet := buildFleet(t, 4, 2000, 3)
	keys := fleet.Keys()
	if len(keys) != 2000 {
		t.Fatalf("loaded %d keys", len(keys))
	}
	single := buildFleet(t, 1, 2000, 1).Keys()
	for i := range keys {
		if string(keys[i]) != string(single[i]) {
			t.Fatalf("key %d: fleet %q vs one-server fleet %q", i, keys[i], single[i])
		}
	}
	for _, key := range keys {
		owners := fleet.Ring.ReplicaOwners(key, 3, nil)
		if len(owners) != 3 {
			t.Fatalf("key %q: %d owners", key, len(owners))
		}
		for _, s := range owners {
			if _, ok := fleet.Servers[s].Get(key); !ok {
				t.Fatalf("key %q missing on replica %d", key, s)
			}
		}
	}
}

// Open-loop arrivals (satellite): the measured arrival rate of the Poisson
// process must track the configured rate across seeds, and the fixed-gap
// mode must hit it almost exactly.
func TestOpenLoopArrivalRate(t *testing.T) {
	const rate = 2e5 // 200k req/s of virtual time
	for _, seed := range []int64{3, 17, 101} {
		fleet := buildFleet(t, 3, 2000, 1)
		res, err := RunFleet(fleet, FleetConfig{
			Config:      Config{Clients: 8, BatchSize: 8, Requests: 2000, KeyBytes: 20, Seed: seed},
			ArrivalRate: rate,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// ~2000 measured exponential gaps: the mean's relative standard
		// error is ~1/sqrt(2000) ≈ 2.2%; 10% is > 4 sigma.
		if rel := math.Abs(res.MeasuredRate-rate) / rate; rel > 0.10 {
			t.Errorf("seed %d: measured rate %.0f vs configured %.0f (%.1f%% off)", seed, res.MeasuredRate, rate, rel*100)
		}
		if res.AvgQueueDelay < 0 || res.P99QueueDelay < res.AvgQueueDelay {
			t.Errorf("seed %d: degenerate queue delays: avg %g p99 %g", seed, res.AvgQueueDelay, res.P99QueueDelay)
		}
	}

	fleet := buildFleet(t, 3, 2000, 1)
	res, err := RunFleet(fleet, FleetConfig{
		Config:                Config{Clients: 8, BatchSize: 8, Requests: 2000, KeyBytes: 20, Seed: 3},
		ArrivalRate:           rate,
		DeterministicArrivals: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.MeasuredRate-rate) / rate; rel > 1e-6 {
		t.Errorf("deterministic arrivals: measured %.2f vs %.0f", res.MeasuredRate, rate)
	}
}

// Open-loop runs are as deterministic as closed-loop ones: identical seeds
// give identical results.
func TestOpenLoopDeterministic(t *testing.T) {
	run := func() FleetResults {
		fleet := buildFleet(t, 3, 2000, 2)
		res, err := RunFleet(fleet, FleetConfig{
			Config:        Config{Clients: 4, BatchSize: 8, Requests: 400, KeyBytes: 20, Seed: 9},
			ArrivalRate:   1e5,
			WriteFraction: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different results:\n %+v\n %+v", a, b)
	}
}

// Quorum writes commit against a majority of replicas and update the
// fleet's canonical contents.
func TestQuorumWrites(t *testing.T) {
	fleet := buildFleet(t, 4, 2000, 3)
	res, err := RunFleet(fleet, FleetConfig{
		Config:        Config{Clients: 4, BatchSize: 8, Requests: 500, KeyBytes: 20, Seed: 8},
		WriteFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatal("write fraction 0.3 over 500 requests produced no writes")
	}
	if res.WritesFailed != 0 {
		t.Fatalf("%d quorum writes failed with no faults", res.WritesFailed)
	}
	if res.HitRate < 0.999 {
		t.Errorf("hit rate %.3f after writes; reads should still find every key", res.HitRate)
	}
}

// Read-repair: wipe one replica to create divergence; reads that hit the
// cold server stream the missing keys back from a surviving replica.
func TestReadRepairHealsWipedReplica(t *testing.T) {
	fleet := buildFleet(t, 3, 2000, 2)
	fleet.Servers[0].Wipe()
	res, err := RunFleet(fleet, FleetConfig{
		Config: Config{Clients: 6, BatchSize: 16, Requests: 600, KeyBytes: 20, Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repairs == 0 {
		t.Fatal("no read-repairs fired against a wiped replica")
	}
	healed := 0
	for _, key := range fleet.Keys() {
		owners := fleet.Ring.ReplicaOwners(key, 2, nil)
		for _, s := range owners {
			if s == 0 {
				if _, ok := fleet.Servers[0].Get(key); ok {
					healed++
				}
			}
		}
	}
	if healed == 0 {
		t.Error("repair acks counted but no key actually landed back on server 0")
	}
}

// Rolling failures: crash windows drive Leave/Join churn; ownership
// transfers are charged through the engines, and the run still completes
// with sane accounting.
func TestFleetChurnRebalances(t *testing.T) {
	spec, err := fault.ParseSpec("crash=3ms:800us,timeout=60us,retries=3,backoff=10us")
	if err != nil {
		t.Fatal(err)
	}
	plan := spec.NewPlan(2)
	fleet := buildFleet(t, 4, 1500, 2)
	for i, srv := range fleet.Servers {
		srv.Faults = plan.ForServer(i)
	}
	res, err := RunFleet(fleet, FleetConfig{
		Config:      Config{Clients: 8, BatchSize: 8, Requests: 2500, KeyBytes: 20, Seed: 12, Faults: plan},
		ArrivalRate: 25e4,
		Churn:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs < 2 {
		t.Fatalf("only %d membership epochs over the crash schedule", res.Epochs)
	}
	if res.KeysMoved == 0 {
		t.Fatal("membership churn moved no keys — rebalance is not running")
	}
	if res.HitRate < 0.5 {
		t.Errorf("hit rate collapsed to %.3f under churn with R=2", res.HitRate)
	}
	if res.Requests == 0 || res.GoodputKeys <= 0 {
		t.Fatalf("degenerate results under churn: %+v", res)
	}
	// Per-request counters can never exceed the measured request count —
	// a duplicate delivery re-entering completion would inflate them.
	if res.Degraded > uint64(res.Requests) {
		t.Fatalf("%d degraded requests out of %d measured", res.Degraded, res.Requests)
	}
}

// Failover: with faults armed but no churn, timed-out sub-batches rotate to
// the next replica instead of hammering the crashed primary.
func TestFleetFailoverReads(t *testing.T) {
	spec, err := fault.ParseSpec("crash=1ms:400us,timeout=50us,retries=3,backoff=10us")
	if err != nil {
		t.Fatal(err)
	}
	plan := spec.NewPlan(5)
	fleet := buildFleet(t, 3, 1500, 2)
	for i, srv := range fleet.Servers {
		srv.Faults = plan.ForServer(i)
	}
	res, err := RunFleet(fleet, FleetConfig{
		Config: Config{Clients: 6, BatchSize: 8, Requests: 1500, KeyBytes: 20, Seed: 13, Faults: plan},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("crash windows fired no replica failovers")
	}
	if res.Timeouts == 0 {
		t.Error("crash windows produced no timeouts")
	}
}

// Typed config errors (satellite): contradictory fleet options are rejected
// with *ConfigError, distinguishable from simulation failures.
func TestFleetConfigErrors(t *testing.T) {
	fleet := buildFleet(t, 3, 500, 2)
	var cfgErr *ConfigError

	_, err := RunFleet(fleet, FleetConfig{Config: Config{Clients: 0, BatchSize: 8, Requests: 10}})
	if !errors.As(err, &cfgErr) {
		t.Errorf("zero clients: got %v, want *ConfigError", err)
	}
	_, err = RunFleet(fleet, FleetConfig{
		Config: Config{Clients: 2, BatchSize: 8, Requests: 10, KeyBytes: 20},
		Churn:  true, // churn without open-loop arrivals
	})
	if !errors.As(err, &cfgErr) {
		t.Errorf("churn without open loop: got %v, want *ConfigError", err)
	}
	_, err = RunFleet(fleet, FleetConfig{
		Config:        Config{Clients: 2, BatchSize: 8, Requests: 10, KeyBytes: 20},
		WriteFraction: 1.5,
	})
	if !errors.As(err, &cfgErr) {
		t.Errorf("write fraction 1.5: got %v, want *ConfigError", err)
	}
	sim := des.New()
	fabric := netsim.New(sim, netsim.EDR())
	if _, err := NewFleet(sim, fabric, nil, 1); !errors.As(err, &cfgErr) {
		t.Errorf("empty fleet: got %v, want *ConfigError", err)
	}
	if _, err := NewFleet(sim, fabric, fleet.Servers, 1); !errors.As(err, &cfgErr) {
		t.Errorf("unpartitioned fabric: got %v, want *ConfigError", err)
	}
}

// Typed load errors (satellite): an undersized index on one server fails
// the load loudly with *LoadError — never a silently smaller key set.
func TestLoadClusterTypedError(t *testing.T) {
	cfg := netsim.EDR()
	pd := des.NewPartitioned(3, 1, cfg.SmallMessageLatency())
	fabric := netsim.New(pd.Sim(0), cfg)
	fabric.Partition(pd)
	srvs := make([]*kvs.Server, 2)
	for i := range srvs {
		space := mem.NewAddressSpace()
		store := kvs.NewItemStore(space)
		// Deliberately undersized: each server gets roughly half of 4000
		// keys but only has room for a few dozen.
		idx, err := kvs.NewVerticalIndex(space, 32, 128, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = kvs.NewServer(pd.Sim(i+1), arch.SkylakeClusterB(), 4, 128, idx, store)
	}
	fleet, err := NewFleet(pd.Sim(0), fabric, srvs, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := fleet.LoadFleet(4000, 20, 32)
	if err == nil {
		t.Fatalf("undersized cluster loaded %d keys without error", len(keys))
	}
	var loadErr *LoadError
	if !errors.As(err, &loadErr) {
		t.Fatalf("got %T (%v), want *LoadError", err, err)
	}
	if loadErr.Server < 0 || loadErr.Server > 1 {
		t.Errorf("LoadError.Server = %d", loadErr.Server)
	}
	if loadErr.Loaded <= 0 || loadErr.Loaded >= loadErr.Want || loadErr.Want != 4000 {
		t.Errorf("LoadError progress %d of %d implausible", loadErr.Loaded, loadErr.Want)
	}
	if loadErr.Unwrap() == nil {
		t.Error("LoadError must wrap the underlying Set failure")
	}
}
