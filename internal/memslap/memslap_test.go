package memslap

import (
	"fmt"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/netsim"
)

func buildStack(t *testing.T, items int) (*des.Sim, *netsim.Fabric, *kvs.Server, [][]byte) {
	t.Helper()
	sim := des.New()
	fabric := netsim.New(sim, netsim.EDR())
	space := mem.NewAddressSpace()
	store := kvs.NewItemStore(space)
	idx, err := kvs.NewVerticalIndex(space, items, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := kvs.NewServer(sim, arch.SkylakeClusterB(), 4, 128, idx, store)
	keys, err := LoadKeys(srv, items, 20, 32)
	if err != nil {
		t.Fatal(err)
	}
	return sim, fabric, srv, keys
}

func TestLoadKeysShapes(t *testing.T) {
	_, _, srv, keys := buildStack(t, 500)
	if len(keys) != 500 {
		t.Fatalf("loaded %d keys", len(keys))
	}
	for _, k := range keys[:10] {
		if len(k) != 20 {
			t.Fatalf("key %q is %d bytes, want 20", k, len(k))
		}
		v, ok := srv.Get(k)
		if !ok || len(v) != 32 {
			t.Fatalf("loaded key %q not retrievable", k)
		}
	}
}

func TestLoadKeysDistinctHashes(t *testing.T) {
	_, _, _, keys := buildStack(t, 300)
	seen := map[uint32]bool{}
	for _, k := range keys {
		h := kvs.Hash32(k)
		if seen[h] {
			t.Fatalf("duplicate hash for %q", k)
		}
		seen[h] = true
	}
}

func TestRunCompletesAndMeasures(t *testing.T) {
	sim, fabric, srv, keys := buildStack(t, 2000)
	res, err := Run(sim, fabric, srv, keys, Config{
		Clients: 4, BatchSize: 8, Requests: 200, KeyBytes: 20, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 {
		t.Errorf("measured %d requests", res.Requests)
	}
	if res.ThroughputKeys <= 0 || res.AvgLatency <= 0 {
		t.Errorf("degenerate results: %+v", res)
	}
	if res.P50Latency > res.P99Latency {
		t.Errorf("p50 %v > p99 %v", res.P50Latency, res.P99Latency)
	}
	if res.AvgLatency > 1e-3 {
		t.Errorf("avg latency %v implausible for EDR + µs service", res.AvgLatency)
	}
	// All requested keys exist, so the hit rate must be 1.
	if res.HitRate < 0.999 {
		t.Errorf("hit rate = %v, want 1.0", res.HitRate)
	}
	if res.Breakdown.Lookup <= 0 {
		t.Error("lookup phase not measured")
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() Results {
		sim, fabric, srv, keys := buildStack(t, 1000)
		res, err := Run(sim, fabric, srv, keys, Config{
			Clients: 3, BatchSize: 4, Requests: 100, KeyBytes: 20, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.ThroughputKeys != b.ThroughputKeys || a.AvgLatency != b.AvgLatency || a.P99Latency != b.P99Latency {
		t.Errorf("same seed diverged:\n%v\n%v", a, b)
	}
}

func TestRunValidation(t *testing.T) {
	sim, fabric, srv, keys := buildStack(t, 100)
	if _, err := Run(sim, fabric, srv, keys, Config{Clients: 0, BatchSize: 4, Requests: 10}); err == nil {
		t.Error("zero clients accepted")
	}
}

func TestThroughputScalesWithBatchSize(t *testing.T) {
	thr := func(batch int) float64 {
		sim, fabric, srv, keys := buildStack(t, 3000)
		res, err := Run(sim, fabric, srv, keys, Config{
			Clients: 8, BatchSize: batch, Requests: 300, KeyBytes: 20, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputKeys
	}
	small, large := thr(4), thr(32)
	if large <= small {
		t.Errorf("batching should amortize network overheads: batch4=%.0f batch32=%.0f keys/s", small, large)
	}
}

func TestMakeKeyPadsToLength(t *testing.T) {
	for _, n := range []int{16, 20, 40} {
		k := makeKey(7, n)
		if len(k) != n {
			t.Errorf("makeKey(7,%d) length %d", n, len(k))
		}
	}
	if string(makeKey(3, 20)) == string(makeKey(4, 20)) {
		t.Error("distinct ordinals must give distinct keys")
	}
}

func TestResultsString(t *testing.T) {
	r := Results{Backend: "X", BatchSize: 16, ThroughputKeys: 2e6, AvgLatency: 5e-6, P99Latency: 9e-6, HitRate: 0.5}
	s := r.String()
	if s == "" {
		t.Error("empty summary")
	}
	_ = fmt.Sprintf("%v", r)
}

func TestLoadETCVariableSizes(t *testing.T) {
	sim := des.New()
	_ = sim
	space := mem.NewAddressSpace()
	store := kvs.NewItemStore(space)
	idx, err := kvs.NewVerticalIndex(space, 2000, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := kvs.NewServer(des.New(), arch.SkylakeClusterB(), 2, 128, idx, store)
	keys, err := LoadETC(srv, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2000 {
		t.Fatalf("loaded %d", len(keys))
	}
	lengths := map[int]bool{}
	for _, k := range keys {
		lengths[len(k)] = true
		if v, ok := srv.Get(k); !ok || len(v) == 0 {
			t.Fatalf("ETC key %q not retrievable", k)
		}
	}
	if len(lengths) < 5 {
		t.Errorf("only %d distinct key lengths; ETC keys should vary", len(lengths))
	}
}

func TestRunWithETCKeys(t *testing.T) {
	sim := des.New()
	fabric := netsim.New(sim, netsim.EDR())
	space := mem.NewAddressSpace()
	store := kvs.NewItemStore(space)
	idx, err := kvs.NewHorizontalIndex(space, 3000, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := kvs.NewServer(sim, arch.SkylakeClusterB(), 4, 128, idx, store)
	keys, err := LoadETC(srv, 3000, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim, fabric, srv, keys, Config{
		Clients: 4, BatchSize: 8, Requests: 200, Seed: 2, // KeyBytes 0: variable
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate < 0.999 {
		t.Errorf("ETC hit rate %.3f", res.HitRate)
	}
	if res.ThroughputKeys <= 0 {
		t.Error("no throughput measured")
	}
}

// A closed-loop R=1 fleet splits each Multi-Get across the ring's owners
// and finds every key.
func TestRunClusterCompletes(t *testing.T) {
	res, err := RunFleet(buildFleet(t, 3, 3000, 1), FleetConfig{Config: Config{
		Clients: 6, BatchSize: 16, Requests: 300, KeyBytes: 20, Seed: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate < 0.999 {
		t.Errorf("cluster hit rate %.3f", res.HitRate)
	}
	// A 16-key batch over 3 servers should fan out to >1 server usually.
	if res.AvgFanout < 1.5 || res.AvgFanout > 3.0 {
		t.Errorf("average fanout %.2f implausible for 3 servers", res.AvgFanout)
	}
	if res.AvgLatency <= 0 || res.P99Latency < res.AvgLatency/2 {
		t.Errorf("latencies degenerate: %+v", res)
	}
}

// With one server and R=1 the fleet measures the plain Run pipeline: the
// same keys on the same single server, the same zipf draws and the same
// message sequence, so every result field the two share matches bitwise at
// any host worker count.
func TestRunClusterSingleServerMatchesRun(t *testing.T) {
	cfg := Config{Clients: 4, BatchSize: 8, Requests: 200, KeyBytes: 20, Seed: 5}
	sim, fabric, srv, keys := buildStack(t, 2000)
	want, err := Run(sim, fabric, srv, keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		got, err := RunFleet(buildFleetWorkers(t, workers, 1, 2000, 1), FleetConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if got.Requests != want.Requests || got.ThroughputKeys != want.ThroughputKeys ||
			got.AvgLatency != want.AvgLatency || got.P99Latency != want.P99Latency ||
			got.HitRate != want.HitRate {
			t.Fatalf("one-server fleet (%d workers) diverged from Run:\n fleet %+v\n run   %+v", workers, got, want)
		}
		if got.AvgFanout != 1.0 {
			t.Errorf("single-server fanout %.2f, want 1.0", got.AvgFanout)
		}
	}
	if want.HitRate < 0.999 {
		t.Errorf("hit rate %.3f", want.HitRate)
	}
}

// NewFleet builds its ring from the server list, so a list that does not
// match the engine's partitions (clients plus one per server) is rejected.
func TestRunClusterValidation(t *testing.T) {
	fleet := buildFleet(t, 2, 500, 1)
	if _, err := NewFleet(fleet.Sim, fleet.Fabric, fleet.Servers[:1], 1); err == nil {
		t.Error("server list mismatching the engine's partitions accepted")
	}
}
