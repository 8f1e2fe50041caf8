// Package memslap is the Multi-Get benchmark client of Section VI-B,
// modeled after libmemcached's memslap tool: a configurable number of
// closed-loop client threads issue MGet(K1..Kn) requests over the simulated
// fabric and record end-to-end latencies in virtual time.
//
// Each client thread picks its batch's keys from the loaded keyspace with a
// mutilate-style Zipfian distribution (key-value-store accesses are skewed)
// and immediately issues the next request when a response arrives. The run
// discards a warm-up fraction, then measures server-side Get throughput
// (keys/second of virtual time) and the end-to-end Multi-Get latency
// distribution.
package memslap

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/netsim"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/workload"
)

// Config parameterizes a run.
type Config struct {
	Clients   int     // concurrent client threads (26 in the paper)
	BatchSize int     // keys per Multi-Get (16 / 64 / 96)
	Requests  int     // measured requests (after warm-up)
	Warmup    int     // discarded warm-up requests; 0 → Requests/5
	KeyBytes  int     // key size (20 B in the paper); 0 = variable (ETC) keys
	ZipfTheta float64 // 0 → mutilate default 0.99
	Seed      int64

	// RequestOverheadBytes models per-key framing in the MGet request.
	RequestOverheadBytes int

	// Faults, when non-nil, arms the client degradation protocol —
	// per-request virtual-time timeouts, bounded retries with capped
	// exponential backoff and seeded jitter, graceful degradation when
	// retries are exhausted — and the server-side pressure schedule. With
	// a nil plan the run executes the exact event sequence it always did.
	Faults *fault.Plan

	// FaultProbe, when non-nil, observes retries, timeouts, degraded
	// batches and pressure bursts (obs layer).
	FaultProbe obs.FaultProbe

	// OverloadProbe, when non-nil, observes overload-control events:
	// retry-budget denials, hedged reads, client-observed sheds and
	// server queue high-water marks. Registered only for plans with
	// overload controls armed (fault.Plan.OverloadArmed), like FaultProbe.
	OverloadProbe obs.OverloadProbe
}

// Results aggregates a run.
type Results struct {
	Backend        string
	BatchSize      int
	Requests       int
	Elapsed        float64 // measured virtual seconds
	ThroughputKeys float64 // server-side Get throughput, keys/s
	ThroughputReqs float64 // Multi-Gets/s
	AvgLatency     float64
	P50Latency     float64
	P99Latency     float64
	HitRate        float64
	Breakdown      kvs.PhaseBreakdown // average per batch
	WorkerUtil     float64

	// Degradation-protocol accounting (all zero with a nil fault plan).
	// GoodputKeys is the throughput of keys actually returned to clients:
	// degraded Multi-Gets contribute their latency but no goodput.
	Retries     uint64
	Timeouts    uint64
	Degraded    uint64 // measured Multi-Gets that exhausted their retries
	KeysMissing uint64
	GoodputKeys float64
}

// String renders a one-line summary.
func (r Results) String() string {
	return fmt.Sprintf("%s n=%d: %.2f Mkeys/s, avg %.1f us, p99 %.1f us (hit %.1f%%)",
		r.Backend, r.BatchSize, r.ThroughputKeys/1e6, r.AvgLatency*1e6, r.P99Latency*1e6, r.HitRate*100)
}

// LoadKeys populates the server with `count` memslap-style items ("key-" +
// zero-padded ordinal, padded to keyBytes) carrying valueBytes values. It
// generates the same key sequence as Fleet.LoadFleet, and a failed Set
// surfaces as a typed *LoadError.
func LoadKeys(srv *kvs.Server, count, keyBytes, valueBytes int) ([][]byte, error) {
	return loadRingKeys(count, keyBytes, valueBytes, func(key, value []byte) (int, error) {
		if _, err := srv.Set(key, value); err != nil {
			return 0, err
		}
		return -1, nil
	})
}

// loadRingKeys generates the canonical memslap key sequence — fixed-width
// decimal keys, deduplicated on their 32-bit hash so every loaded key is
// retrievable through the SIMD index (which resolves by full-key
// verification only within one hash) — and hands each (key, value) pair to
// place, which returns the failing server with its error. LoadKeys and
// Fleet.LoadFleet share this loop, so a one-server run and a fleet load the
// same keys under the same parameters.
func loadRingKeys(count, keyBytes, valueBytes int, place func(key, value []byte) (int, error)) ([][]byte, error) {
	keys := make([][]byte, 0, count)
	seen := make(map[uint32]struct{}, count)
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for i := 0; len(keys) < count; i++ {
		if i > count*2+1000 {
			return nil, &LoadError{Server: -1, Loaded: len(keys), Want: count,
				Err: fmt.Errorf("too many 32-bit hash collisions")}
		}
		key := makeKey(i, keyBytes)
		h := kvs.Hash32(key)
		if _, dup := seen[h]; dup {
			continue
		}
		seen[h] = struct{}{}
		if srv, err := place(key, value); err != nil {
			return nil, &LoadError{Server: srv, Loaded: len(keys), Want: count, Err: err}
		}
		keys = append(keys, key)
	}
	return keys, nil
}

func makeKey(i, keyBytes int) []byte {
	base := fmt.Sprintf("key-%012d", i)
	for len(base) < keyBytes {
		base += "x"
	}
	return []byte(base[:keyBytes])
}

// Run drives the closed-loop Multi-Get workload against srv over the fabric
// and returns aggregated results. keys is the loaded keyspace.
func Run(sim *des.Sim, fabric *netsim.Fabric, srv *kvs.Server, keys [][]byte, cfg Config) (Results, error) {
	if cfg.Clients <= 0 || cfg.BatchSize <= 0 || cfg.Requests <= 0 {
		return Results{}, fmt.Errorf("memslap: clients, batch size and requests must be positive")
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = cfg.Requests / 5
	}
	theta := cfg.ZipfTheta
	if theta == 0 {
		theta = workload.DefaultZipfTheta
	}
	if cfg.RequestOverheadBytes == 0 {
		cfg.RequestOverheadBytes = 8
	}

	serverEP := fabric.Endpoint("server")
	srv.WarmCaches()

	total := cfg.Warmup + cfg.Requests
	issued := 0
	completed := 0
	var latencies []float64
	var measStart float64
	var measEnd float64
	var hits, served, returned uint64
	var retries, timeouts, degraded, missing uint64

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf, err := workload.NewZipf(len(keys), theta, rng)
	if err != nil {
		return Results{}, err
	}

	var issue func(clientEP *netsim.Endpoint, budget *retryBudget)
	issue = func(clientEP *netsim.Endpoint, budget *retryBudget) {
		if issued >= total {
			return
		}
		issued++
		seq := issued
		batch := make([][]byte, cfg.BatchSize)
		for i := range batch {
			batch[i] = keys[zipf.Next()]
		}
		sent := sim.Now()
		sendMGet(sim, clientEP, serverEP, srv, batch, requestBytes(batch, cfg.RequestOverheadBytes),
			cfg.Faults, cfg.FaultProbe, budget, cfg.OverloadProbe, func(res kvs.MGetResult, ok bool, nRetries, nTimeouts int) {
				completed++
				if !ok && cfg.FaultProbe != nil {
					cfg.FaultProbe.BatchDegraded(0, len(batch), sim.Now())
				}
				if seq > cfg.Warmup {
					latencies = append(latencies, sim.Now()-sent)
					hits += uint64(res.Found)
					served += uint64(len(batch))
					retries += uint64(nRetries)
					timeouts += uint64(nTimeouts)
					if ok {
						returned += uint64(len(batch))
					} else {
						degraded++
						missing += uint64(len(batch))
					}
					measEnd = sim.Now()
				} else if seq == cfg.Warmup {
					measStart = sim.Now()
					srv.ResetStats()
				}
				issue(clientEP, budget)
			})
	}

	schedulePressure(sim, srv, cfg.FaultProbe, func() bool { return completed >= total })
	for c := 0; c < cfg.Clients; c++ {
		// Each client thread owns its retry budget, as each would in a
		// real client process.
		issue(fabric.Endpoint(fmt.Sprintf("client-%d", c)), newRetryBudget(cfg.Faults.RetryBudget()))
	}
	if err := runToCompletion(sim, total, func() int { return completed }); err != nil {
		return Results{}, err
	}

	elapsed := measEnd - measStart
	if elapsed <= 0 {
		elapsed = math.SmallestNonzeroFloat64
	}
	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	n := len(latencies)

	avgBreakdown := srv.PhaseTotals
	if srv.Batches > 0 {
		avgBreakdown.Pre /= float64(srv.Batches)
		avgBreakdown.Lookup /= float64(srv.Batches)
		avgBreakdown.Post /= float64(srv.Batches)
	}

	return Results{
		Backend:        srv.Index.Name(),
		BatchSize:      cfg.BatchSize,
		Requests:       n,
		Elapsed:        elapsed,
		ThroughputKeys: float64(served) / elapsed,
		ThroughputReqs: float64(n) / elapsed,
		AvgLatency:     sum / float64(n),
		P50Latency:     latencies[n/2],
		P99Latency:     latencies[min(n-1, n*99/100)],
		HitRate:        float64(hits) / float64(served),
		Breakdown:      avgBreakdown,
		WorkerUtil:     srv.Workers.Utilization(),
		Retries:        retries,
		Timeouts:       timeouts,
		Degraded:       degraded,
		KeysMissing:    missing,
		GoodputKeys:    float64(returned) / elapsed,
	}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// LoadETC populates the server with `count` items whose key and value sizes
// follow the Facebook ETC distributions (workload.ETC) instead of fixed
// memslap sizes. Returned keys are unique (hash-deduplicated, like
// LoadKeys). The KVS harness uses it for the realistic-sizes variant of the
// Section VI study.
func LoadETC(srv *kvs.Server, count int, seed int64) ([][]byte, error) {
	etc := workload.NewETC(seed)
	keys := make([][]byte, 0, count)
	seen := make(map[uint32]struct{}, count)
	for i := 0; len(keys) < count; i++ {
		if i > count*2+1000 {
			return nil, fmt.Errorf("memslap: too many hash collisions loading %d ETC keys", count)
		}
		it := etc.Items(1)[0]
		key := makeKey(i, it.KeyLen)
		h := kvs.Hash32(key)
		if _, dup := seen[h]; dup {
			continue
		}
		seen[h] = struct{}{}
		value := make([]byte, it.ValLen)
		for j := range value {
			value[j] = byte('A' + (i+j)%26)
		}
		if _, err := srv.Set(key, value); err != nil {
			return nil, err
		}
		keys = append(keys, key)
	}
	return keys, nil
}
