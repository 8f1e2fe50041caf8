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
	"strconv"

	"simdhtbench/internal/fault"
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

	// ClientProbe, when non-nil, observes retries, timeouts and degraded
	// batches (obs layer).
	ClientProbe obs.ClientProbe
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
