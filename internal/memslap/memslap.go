// Package memslap is the Multi-Get benchmark client of Section VI-B,
// modeled after libmemcached's memslap tool: client threads issue
// MGet(K1..Kn) requests over the simulated fabric and record end-to-end
// latencies in virtual time.
//
// There is one driver, RunFleet, over one kind of cluster, Fleet: N servers
// behind a consistent-hash ring with R-way replica sets on a partitioned
// simulation. The paper's setup — one client host against one
// RDMA-Memcached server — is the one-server, R=1 fleet; the cluster, fleet
// and overload studies widen it.
//
// Each client picks its batch's keys from the loaded keyspace with a
// mutilate-style Zipfian distribution (key-value-store accesses are skewed).
// Closed-loop clients issue the next request when a response arrives;
// open-loop arrivals come at a fixed rate regardless. The run discards a
// warm-up fraction, then measures server-side Get throughput (keys/second of
// virtual time), the end-to-end Multi-Get latency distribution and the
// server's per-batch phase breakdown.
package memslap

import (
	"fmt"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/obs"
)

const (
	// warmupDivisor sizes the discarded warm-up: Requests/warmupDivisor
	// requests run before measurement starts.
	warmupDivisor = 5
	// requestKeyOverheadBytes models per-key framing in the MGet request.
	requestKeyOverheadBytes = 8
)

// Config parameterizes a run.
type Config struct {
	Clients   int // concurrent client threads (26 in the paper)
	BatchSize int // keys per Multi-Get (16 / 64 / 96)
	Requests  int // measured requests (after warm-up)
	KeyBytes  int // key size (20 B in the paper); 0 = variable (ETC) keys
	Seed      int64

	// Faults, when non-nil, arms the client degradation protocol —
	// per-request virtual-time timeouts, bounded retries with capped
	// exponential backoff and seeded jitter, graceful degradation when
	// retries are exhausted. With a nil plan the run executes the exact
	// event sequence it always did.
	Faults *fault.Plan

	// FaultProbe, when non-nil, observes retries, timeouts and degraded
	// batches (obs layer).
	FaultProbe obs.FaultProbe

	// OverloadProbe, when non-nil, observes overload-control events:
	// retry-budget denials, hedged reads and client-observed sheds.
	// Registered only for plans with overload controls armed
	// (fault.Plan.OverloadArmed), like FaultProbe.
	OverloadProbe obs.OverloadProbe
}

// loadRingKeys generates a deduplicated key sequence and hands each (key,
// value) pair to place, which returns the failing server with its error.
// item builds the i-th candidate; a candidate whose 32-bit hash repeats an
// earlier key's is skipped, so every loaded key is retrievable through the
// SIMD index (which resolves by full-key verification only within one
// hash). Fleet.LoadFleet and Fleet.LoadETC share this loop.
func loadRingKeys(count int, item func(i int) (key, value []byte), place func(key, value []byte) (int, error)) ([][]byte, error) {
	keys := make([][]byte, 0, count)
	seen := make(map[uint32]struct{}, count)
	for i := 0; len(keys) < count; i++ {
		if i > count*2+1000 {
			return nil, &LoadError{Server: -1, Loaded: len(keys), Want: count,
				Err: fmt.Errorf("too many 32-bit hash collisions")}
		}
		key, value := item(i)
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

// makeKey renders the i-th memslap key: "key-" plus a zero-padded ordinal,
// padded or cut to keyBytes.
func makeKey(i, keyBytes int) []byte {
	base := fmt.Sprintf("key-%012d", i)
	for len(base) < keyBytes {
		base += "x"
	}
	return []byte(base[:keyBytes])
}
