package memslap

import (
	"fmt"
	"testing"

	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
)

func TestLoadKeysShapes(t *testing.T) {
	fleet := buildFleet(t, 1, 500, 1)
	keys := fleet.Keys()
	if len(keys) != 500 {
		t.Fatalf("loaded %d keys", len(keys))
	}
	for _, k := range keys[:10] {
		if len(k) != 20 {
			t.Fatalf("key %q is %d bytes, want 20", k, len(k))
		}
		v, ok := fleet.Servers[0].Get(k)
		if !ok || len(v) != 32 {
			t.Fatalf("loaded key %q not retrievable", k)
		}
	}
}

func TestLoadKeysDistinctHashes(t *testing.T) {
	keys := buildFleet(t, 1, 300, 1).Keys()
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
	res, err := RunFleet(buildFleet(t, 1, 2000, 1), FleetConfig{Config: Config{
		Clients: 4, BatchSize: 8, Requests: 200, KeyBytes: 20, Seed: 2,
	}})
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
	mk := func() FleetResults {
		res, err := RunFleet(buildFleet(t, 1, 1000, 1), FleetConfig{Config: Config{
			Clients: 3, BatchSize: 4, Requests: 100, KeyBytes: 20, Seed: 5,
		}})
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
	fleet := buildFleet(t, 1, 100, 1)
	if _, err := RunFleet(fleet, FleetConfig{Config: Config{Clients: 0, BatchSize: 4, Requests: 10}}); err == nil {
		t.Error("zero clients accepted")
	}
}

func TestThroughputScalesWithBatchSize(t *testing.T) {
	thr := func(batch int) float64 {
		res, err := RunFleet(buildFleet(t, 1, 3000, 1), FleetConfig{Config: Config{
			Clients: 8, BatchSize: batch, Requests: 300, KeyBytes: 20, Seed: 9,
		}})
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
	r := FleetResults{Backend: "X", BatchSize: 16, ThroughputKeys: 2e6, AvgLatency: 5e-6, P99Latency: 9e-6, HitRate: 0.5}
	s := r.String()
	if s == "" {
		t.Error("empty summary")
	}
	_ = fmt.Sprintf("%v", r)
}

func TestLoadETCVariableSizes(t *testing.T) {
	fleet := buildFleetIndex(t, 1, 1, 1, func(space *mem.AddressSpace, _ int) (kvs.Index, error) {
		return kvs.NewVerticalIndex(space, 2000, 128, 1)
	})
	keys, err := fleet.LoadETC(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2000 {
		t.Fatalf("loaded %d", len(keys))
	}
	lengths := map[int]bool{}
	for _, k := range keys {
		lengths[len(k)] = true
		if v, ok := fleet.Servers[0].Get(k); !ok || len(v) == 0 {
			t.Fatalf("ETC key %q not retrievable", k)
		}
	}
	if len(lengths) < 5 {
		t.Errorf("only %d distinct key lengths; ETC keys should vary", len(lengths))
	}
}

func TestRunWithETCKeys(t *testing.T) {
	fleet := buildFleetIndex(t, 1, 1, 1, func(space *mem.AddressSpace, _ int) (kvs.Index, error) {
		return kvs.NewHorizontalIndex(space, 3000, 128, 1)
	})
	if _, err := fleet.LoadETC(3000, 6); err != nil {
		t.Fatal(err)
	}
	res, err := RunFleet(fleet, FleetConfig{Config: Config{
		Clients: 4, BatchSize: 8, Requests: 200, Seed: 2, // KeyBytes 0: variable
	}})
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

// With one server and R=1 the fleet measures the plain single-server
// pipeline the retired serial driver (memslap.Run) measured: the same keys
// on the same single server, the same zipf draws and the same message
// sequence. Its results on this fixture are kept as exact hexadecimal
// literals, and the fleet must match them bitwise at any host worker count.
func TestRunClusterSingleServerMatchesRun(t *testing.T) {
	cfg := Config{Clients: 4, BatchSize: 8, Requests: 200, KeyBytes: 20, Seed: 5}
	want := FleetResults{
		Requests: 200, ThroughputKeys: 0x1.965b58260b555p+23, AvgLatency: 0x1.42470338d80c6p-19,
		P99Latency: 0x1.48c49ac30c598p-19, HitRate: 0x1p+00,
	}
	for _, workers := range []int{1, 2} {
		got, err := RunFleet(buildFleetWorkers(t, workers, 1, 2000, 1), FleetConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		shared := FleetResults{
			Requests: got.Requests, ThroughputKeys: got.ThroughputKeys, AvgLatency: got.AvgLatency,
			P99Latency: got.P99Latency, HitRate: got.HitRate,
		}
		if shared != want {
			t.Fatalf("one-server fleet (%d workers) diverged from the recorded Run results:\n fleet %+v\n run   %+v", workers, shared, want)
		}
		if got.AvgFanout != 1.0 {
			t.Errorf("single-server fanout %.2f, want 1.0", got.AvgFanout)
		}
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
