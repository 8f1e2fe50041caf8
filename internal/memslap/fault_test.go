package memslap

import (
	"math"
	"math/rand"
	"testing"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/hashfn"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/workload"
)

func mustSpec(t *testing.T, s string) fault.Spec {
	t.Helper()
	spec, err := fault.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// armFabric gives every partition of the fleet's fabric its message-fault
// stream from plan.
func armFabric(fleet *Fleet, plan *fault.Plan) {
	for p := 0; p <= len(fleet.Servers); p++ {
		fleet.Fabric.SetPartitionFaults(p, plan.ForPartition(p), nil)
	}
}

// faultRun drives a 500-key one-server fleet through message faults: plan
// arms both the fabric and the client protocol.
func faultRun(t *testing.T, plan *fault.Plan) FleetResults {
	t.Helper()
	fleet := buildFleet(t, 1, 500, 1)
	armFabric(fleet, plan)
	res, err := RunFleet(fleet, FleetConfig{Config: Config{
		Clients: 2, BatchSize: 8, Requests: 40, Seed: 5, Faults: plan,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunRetriesThroughLoss drives the client protocol through injected
// message loss: with generous retries every Multi-Get eventually succeeds,
// retries and timeouts are counted, and goodput equals throughput.
func TestRunRetriesThroughLoss(t *testing.T) {
	res := faultRun(t, mustSpec(t, "drop=0.2,timeout=10us,retries=8,backoff=2us").NewPlan(3))
	if res.Retries == 0 || res.Timeouts == 0 {
		t.Errorf("20%% loss produced no protocol activity: retries=%d timeouts=%d", res.Retries, res.Timeouts)
	}
	if res.Degraded != 0 || res.KeysMissing != 0 {
		t.Errorf("8 retries should outlast 20%% loss: degraded=%d missing=%d", res.Degraded, res.KeysMissing)
	}
	if res.GoodputKeys != res.ThroughputKeys {
		t.Errorf("no degradation but goodput %v != throughput %v", res.GoodputKeys, res.ThroughputKeys)
	}
}

// TestRunDegradesUnderHeavyLoss checks graceful degradation: with one retry
// against heavy loss some Multi-Gets are abandoned — counted, with their
// keys, and goodput drops below throughput. The run still completes; no
// hang, no panic.
func TestRunDegradesUnderHeavyLoss(t *testing.T) {
	res := faultRun(t, mustSpec(t, "drop=0.4,timeout=10us,retries=1,backoff=2us").NewPlan(3))
	if res.Degraded == 0 {
		t.Fatal("40% loss with one retry degraded nothing")
	}
	if res.KeysMissing != res.Degraded*uint64(res.BatchSize) {
		t.Errorf("missing %d keys from %d degraded batches of %d", res.KeysMissing, res.Degraded, res.BatchSize)
	}
	if res.GoodputKeys >= res.ThroughputKeys {
		t.Errorf("degraded run: goodput %v must trail throughput %v", res.GoodputKeys, res.ThroughputKeys)
	}
}

// TestRunFaultDeterministic repeats a faulty run and requires identical
// measurements — the tentpole determinism contract at the package level.
func TestRunFaultDeterministic(t *testing.T) {
	spec := mustSpec(t, "drop=0.3,dup=0.1,delayp=0.1,delay=3us,timeout=10us,retries=2,backoff=2us")
	a, b := faultRun(t, spec.NewPlan(9)), faultRun(t, spec.NewPlan(9))
	if a != b {
		t.Errorf("identical faulty runs diverged:\n%+v\n%+v", a, b)
	}
}

// crashedMGet runs one Multi-Get of batch keys on a 400-key R=1 fleet of
// nservers servers, with the servers listed in crashed down for every
// attempt, and returns its results with the number of the request's keys
// each server owns. A crashed server is down 99% of every 10 µs period, and
// the clock starts past the always-healthy first period.
func crashedMGet(t *testing.T, nservers, batch int, crashed ...int) (FleetResults, map[int]int) {
	t.Helper()
	fleet := buildFleetIndex(t, nservers, 1, func(space *mem.AddressSpace, i int) (kvs.Index, error) {
		return kvs.NewVerticalIndex(space, 600, 64, int64(i)+1)
	})
	if _, err := fleet.LoadFleet(400, 20, 32); err != nil {
		t.Fatal(err)
	}
	spec := mustSpec(t, "crash=10us:9900ns,timeout=5us,retries=2,backoff=1us")
	for _, s := range crashed {
		fleet.Servers[s].Faults = spec.NewPlan(1)
	}
	fleet.Sim.After(12e-6, func() {})
	fleet.pd.Run()

	// The request's keys are the first batch draws of RunFleet's zipf
	// stream at the run's seed.
	const seed = 5
	keys := fleet.keys
	zipf, err := workload.NewZipf(len(keys), workload.DefaultZipfTheta, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	owned := map[int]int{}
	for i := 0; i < batch; i++ {
		owned[fleet.Ring.ReplicaOwners(hashfn.HashBytes(keys[zipf.Next()]), 1, nil)[0]]++
	}
	if len(owned) != nservers {
		t.Fatalf("batch does not span all %d servers: %v", nservers, owned)
	}

	res, err := RunFleet(fleet, FleetConfig{Config: Config{
		Clients: 1, BatchSize: batch, Requests: 1, Seed: seed, Faults: spec.NewPlan(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res, owned
}

// checkCrashedMGet asserts a crashedMGet outcome with server 0 healthy and
// every other server crashed: the request degraded rather than hanging or
// claiming full success; the crashed servers' keys count as missing and
// the healthy server's keys were returned; and each degraded sub-batch ran
// the full protocol independently — every attempt against a crashed server
// times out, so each contributes retries+1 timeouts and `retries` retries.
func checkCrashedMGet(t *testing.T, res FleetResults, owned map[int]int) {
	t.Helper()
	const retries = 2
	if res.Requests != 1 || res.Degraded != 1 {
		t.Fatalf("Multi-Get against crashed servers: %d requests, %d degraded, want 1 and 1", res.Requests, res.Degraded)
	}
	missing := res.BatchSize - owned[0]
	if int(res.KeysMissing) != missing {
		t.Errorf("KeysMissing = %d, want the crashed servers' %d keys", res.KeysMissing, missing)
	}
	if got := int(math.Round(res.HitRate * float64(res.BatchSize))); got != owned[0] {
		t.Errorf("%d keys returned, want the healthy server's %d", got, owned[0])
	}
	degraded := uint64(len(owned) - 1)
	if want := degraded * (retries + 1); res.Timeouts != want {
		t.Errorf("Timeouts = %d, want %d (%d sub-batches x %d attempts)", res.Timeouts, want, degraded, retries+1)
	}
	if want := degraded * retries; res.Retries != want {
		t.Errorf("Retries = %d, want %d (%d sub-batches x %d retries)", res.Retries, want, degraded, retries)
	}
}

// TestMGetPartialErrorUnderCrash is the acceptance scenario: a Multi-Get
// against a two-server fleet with one server crashed returns the healthy
// server's keys and counts the rest missing — never a hang, a panic, or a
// silent full success.
func TestMGetPartialErrorUnderCrash(t *testing.T) {
	res, owned := crashedMGet(t, 2, 16, 1)
	checkCrashedMGet(t, res, owned)
}

// TestRunClusterDegradedAccounting drives an R=1 fleet under loss and
// checks the per-request aggregation: degraded requests count their missing
// sub-batch keys and goodput excludes them.
func TestRunClusterDegradedAccounting(t *testing.T) {
	run := func() FleetResults {
		spec := mustSpec(t, "drop=0.4,timeout=10us,retries=1,backoff=2us")
		plan := spec.NewPlan(3)
		fleet := buildFleet(t, 2, 400, 1)
		armFabric(fleet, plan)
		res, err := RunFleet(fleet, FleetConfig{Config: Config{
			Clients: 2, BatchSize: 8, Requests: 40, Seed: 5, Faults: plan,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Degraded == 0 || res.KeysMissing == 0 {
		t.Fatalf("40%% loss degraded nothing: %+v", res)
	}
	if res.Retries == 0 || res.Timeouts == 0 {
		t.Errorf("no protocol activity recorded: %+v", res)
	}
	if res.GoodputKeys >= res.ThroughputKeys {
		t.Errorf("goodput %v must trail throughput %v", res.GoodputKeys, res.ThroughputKeys)
	}
	if res2 := run(); res != res2 {
		t.Errorf("identical faulty cluster runs diverged:\n%+v\n%+v", res, res2)
	}
}

// TestMGetPartialErrorAccumulatesAcrossSubBatches pins the accounting when
// several sub-batches of one Multi-Get degrade at once: two of three
// servers are crashed, so two sub-batches exhaust their retries
// independently, and the request's results carry both sub-batches' missing
// keys and the summed retries and timeouts of both degraded protocols.
func TestMGetPartialErrorAccumulatesAcrossSubBatches(t *testing.T) {
	res, owned := crashedMGet(t, 3, 24, 1, 2)
	checkCrashedMGet(t, res, owned)
}

// A hedge duplicates a read to the next replica rank; with R=1 that is the
// same server, so a one-server fleet never hedges, whatever the plan says.
func TestOneServerFleetNeverHedges(t *testing.T) {
	res := faultRun(t, mustSpec(t, "drop=0.2,timeout=10us,retries=8,backoff=2us,hedge=1us").NewPlan(3))
	if res.Hedges != 0 || res.HedgeWins != 0 {
		t.Errorf("one-server fleet hedged: %d hedges, %d wins", res.Hedges, res.HedgeWins)
	}
}
