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
//
// RunFleet keeps each request's state in typed structs (request.go): a
// fleetRun per call holds the config, the random streams and the clients;
// each read (readReq), each of its per-server attempts (subBatch) and each
// quorum write (writeReq) is a struct whose methods issue, send, take a
// response, time out, hedge, rotate to the next replica and finish, with
// their event callbacks bound once when the struct is created. FleetResults
// is computed from one counter struct, and every run checks that the keys
// requested equal the keys returned plus KeysMissing.
package memslap

import (
	"fmt"
	"strconv"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/hashfn"
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
// value) pair with the key's hashfn.HashBytes value to place, which
// returns the failing server with its error. item builds the i-th
// candidate; a candidate whose 32-bit hash (kvs.Hash32, the mix of that
// value) repeats an earlier key's is skipped, so every loaded key is
// retrievable through the SIMD index (which resolves by full-key
// verification only within one hash). Fleet.LoadFleet and Fleet.LoadETC
// share this loop.
func loadRingKeys(count int, item func(i int) (key, value []byte), place func(key, value []byte, h uint64) (int, error)) ([][]byte, error) {
	keys := make([][]byte, 0, count)
	seen := make(map[uint32]struct{}, count)
	for i := 0; len(keys) < count; i++ {
		if i > count*2+1000 {
			return nil, &LoadError{Server: -1, Loaded: len(keys), Want: count,
				Err: fmt.Errorf("too many 32-bit hash collisions")}
		}
		key, value := item(i)
		h := hashfn.HashBytes(key)
		h32 := hashfn.Mix64to32(h)
		if _, dup := seen[h32]; dup {
			continue
		}
		seen[h32] = struct{}{}
		if srv, err := place(key, value, h); err != nil {
			return nil, &LoadError{Server: srv, Loaded: len(keys), Want: count, Err: err}
		}
		keys = append(keys, key)
	}
	return keys, nil
}

// makeKey renders the i-th memslap key (i >= 0): "key-" plus the ordinal
// zero-padded to 12 digits, padded with 'x' or cut to keyBytes. It writes
// the key into one allocation of keyBytes.
func makeKey(i, keyBytes int) []byte {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], uint64(i), 10)
	key := make([]byte, keyBytes)
	n := copy(key, "key-")
	for pad := 12 - len(d); pad > 0 && n < keyBytes; pad-- {
		key[n] = '0'
		n++
	}
	n += copy(key[n:], d)
	for ; n < keyBytes; n++ {
		key[n] = 'x'
	}
	return key
}
