package memslap

import (
	"errors"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/netsim"
)

func mustSpec(t *testing.T, s string) fault.Spec {
	t.Helper()
	spec, err := fault.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// loadOnRing loads count memslap items onto servers by ring ownership.
func loadOnRing(t *testing.T, servers []*kvs.Server, ring *kvs.Ring, count int) [][]byte {
	t.Helper()
	keys, err := loadRingKeys(count, 20, 32, func(key, value []byte) (int, error) {
		s := ring.Owner(key)
		_, err := servers[s].Set(key, value)
		return s, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func faultCfg(spec fault.Spec, seed int64) Config {
	return Config{
		Clients: 2, BatchSize: 8, Requests: 40, Seed: 5,
		Faults: spec.NewPlan(seed),
	}
}

// TestRunRetriesThroughLoss drives the client protocol through injected
// message loss: with generous retries every Multi-Get eventually succeeds,
// retries and timeouts are counted, and goodput equals throughput.
func TestRunRetriesThroughLoss(t *testing.T) {
	sim, fabric, srv, keys := buildStack(t, 500)
	spec := mustSpec(t, "drop=0.2,timeout=10us,retries=8,backoff=2us")
	fabric.Faults = spec.NewPlan(3)
	res, err := Run(sim, fabric, srv, keys, faultCfg(spec, 3))
	if err != nil {
		t.Fatal(err)
	}
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
	sim, fabric, srv, keys := buildStack(t, 500)
	spec := mustSpec(t, "drop=0.4,timeout=10us,retries=1,backoff=2us")
	fabric.Faults = spec.NewPlan(3)
	res, err := Run(sim, fabric, srv, keys, faultCfg(spec, 3))
	if err != nil {
		t.Fatal(err)
	}
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
	run := func() Results {
		sim, fabric, srv, keys := buildStack(t, 500)
		spec := mustSpec(t, "drop=0.3,dup=0.1,delayp=0.1,delay=3us,timeout=10us,retries=2,backoff=2us")
		fabric.Faults = spec.NewPlan(9)
		res, err := Run(sim, fabric, srv, keys, faultCfg(spec, 9))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical faulty runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestMGetPartialErrorUnderCrash is the acceptance scenario: a Multi-Get
// against a two-server cluster with one server crashed returns the served
// subset plus a structured *kvs.PartialError — never a hang, a panic, or a
// silent full success.
func TestMGetPartialErrorUnderCrash(t *testing.T) {
	sim := des.New()
	fabric := netsim.New(sim, netsim.EDR())
	ring, err := kvs.NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*kvs.Server, 2)
	for i := range servers {
		space := mem.NewAddressSpace()
		store := kvs.NewItemStore(space)
		idx, err := kvs.NewVerticalIndex(space, 600, 64, int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = kvs.NewServer(sim, arch.SkylakeClusterB(), 2, 64, idx, store)
	}
	keys := loadOnRing(t, servers, ring, 400)

	// Crash server 1 with a 99% duty cycle and advance the clock past the
	// always-healthy first period, so every attempt (and retry) lands in a
	// down window. Server 0 stays healthy.
	spec := mustSpec(t, "crash=10us:9900ns,timeout=5us,retries=2,backoff=1us")
	servers[1].Faults = spec.NewPlan(1)
	sim.After(12e-6, func() {})
	sim.Run()

	batch := keys[:16]
	wantOwned := map[int]int{}
	for _, k := range batch {
		wantOwned[ring.Owner(k)]++
	}
	if wantOwned[0] == 0 || wantOwned[1] == 0 {
		t.Fatalf("batch does not span both servers: %v", wantOwned)
	}

	plan := spec.NewPlan(1)
	values, err := MGet(sim, fabric, "client", servers, ring, batch, plan, nil)
	if err == nil {
		t.Fatal("MGet against a crashed server reported silent full success")
	}
	var pe *kvs.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *kvs.PartialError", err)
	}
	if pe.Served != wantOwned[0] || pe.Missing != wantOwned[1] {
		t.Errorf("PartialError served/missing = %d/%d, want %d/%d",
			pe.Served, pe.Missing, wantOwned[0], wantOwned[1])
	}
	if pe.Timeouts == 0 {
		t.Error("abandoning a sub-batch requires timeouts, got none")
	}
	// The served subset really is served: healthy server's keys carry
	// values, crashed server's keys are nil.
	for i, k := range batch {
		if ring.Owner(k) == 0 && values[i] == nil {
			t.Errorf("key %d owned by the healthy server came back nil", i)
		}
		if ring.Owner(k) == 1 && values[i] != nil {
			t.Errorf("key %d owned by the crashed server came back non-nil", i)
		}
	}
}

// TestRunClusterDegradedAccounting drives an R=1 fleet under loss and
// checks the per-request aggregation: degraded requests count their missing
// sub-batch keys and goodput excludes them.
func TestRunClusterDegradedAccounting(t *testing.T) {
	run := func() FleetResults {
		spec := mustSpec(t, "drop=0.4,timeout=10us,retries=1,backoff=2us")
		plan := spec.NewPlan(3)
		fleet := buildFleet(t, 2, 400, 1)
		for p := 0; p <= len(fleet.Servers); p++ {
			fleet.Fabric.SetPartitionFaults(p, plan.ForPartition(p), nil)
		}
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

// TestMGetPartialErrorAccumulatesAcrossSubBatches pins MGet's error
// aggregation when several sub-batches of one Multi-Get degrade at once:
// two of three servers are crashed, so two sub-batches exhaust their
// retries independently and the single returned *kvs.PartialError must
// carry the merged Served/Missing split and the summed Retries/Timeouts of
// both degraded protocols.
func TestMGetPartialErrorAccumulatesAcrossSubBatches(t *testing.T) {
	sim := des.New()
	fabric := netsim.New(sim, netsim.EDR())
	ring, err := kvs.NewRing(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*kvs.Server, 3)
	for i := range servers {
		space := mem.NewAddressSpace()
		store := kvs.NewItemStore(space)
		idx, err := kvs.NewVerticalIndex(space, 600, 64, int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = kvs.NewServer(sim, arch.SkylakeClusterB(), 2, 64, idx, store)
	}
	keys := loadOnRing(t, servers, ring, 400)

	// Crash servers 1 and 2 with a 99% duty cycle and advance past the
	// always-healthy first period, so every attempt against either lands
	// in a down window. Server 0 stays healthy.
	const retries = 2
	spec := mustSpec(t, "crash=10us:9900ns,timeout=5us,retries=2,backoff=1us")
	servers[1].Faults = spec.NewPlan(1)
	servers[2].Faults = spec.NewPlan(1)
	sim.After(12e-6, func() {})
	sim.Run()

	batch := keys[:24]
	wantOwned := map[int]int{}
	for _, k := range batch {
		wantOwned[ring.Owner(k)]++
	}
	if wantOwned[0] == 0 || wantOwned[1] == 0 || wantOwned[2] == 0 {
		t.Fatalf("batch does not span all three servers: %v", wantOwned)
	}

	plan := spec.NewPlan(1)
	values, err := MGet(sim, fabric, "client", servers, ring, batch, plan, nil)
	if err == nil {
		t.Fatal("MGet against two crashed servers reported silent full success")
	}
	var pe *kvs.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *kvs.PartialError", err)
	}
	if pe.Served != wantOwned[0] || pe.Missing != wantOwned[1]+wantOwned[2] {
		t.Errorf("PartialError served/missing = %d/%d, want %d/%d",
			pe.Served, pe.Missing, wantOwned[0], wantOwned[1]+wantOwned[2])
	}
	// Both degraded sub-batches run the full protocol independently: every
	// attempt against a crashed server times out, so each contributes
	// retries+1 timeouts and `retries` retries to the merged error.
	if want := 2 * (retries + 1); pe.Timeouts != want {
		t.Errorf("merged Timeouts = %d, want %d (two sub-batches x %d attempts)",
			pe.Timeouts, want, retries+1)
	}
	if want := 2 * retries; pe.Retries != want {
		t.Errorf("merged Retries = %d, want %d (two sub-batches x %d retries)",
			pe.Retries, want, retries)
	}
	// The served subset aligns with ownership: healthy server's keys carry
	// values, crashed servers' keys are nil.
	for i, k := range batch {
		if ring.Owner(k) == 0 && values[i] == nil {
			t.Errorf("key %d owned by the healthy server came back nil", i)
		}
		if ring.Owner(k) != 0 && values[i] != nil {
			t.Errorf("key %d owned by a crashed server came back non-nil", i)
		}
	}
}
