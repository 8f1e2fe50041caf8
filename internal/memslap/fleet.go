package memslap

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"simdhtbench/internal/des"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/netsim"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/workload"
)

// Fleet-scale replication constants. Transfer and write frames carry
// per-item overhead like the MGet request frames; rebalance ships items in
// protocol-sized batches so a storm is many charged messages, not one
// teleported blob.
const (
	rebalanceBatchItems      = 64
	replicaItemOverheadBytes = 24
	replicaAckBytes          = 16

	// arrivalSeedOffset derives the open-loop arrival RNG stream from the
	// workload seed without entangling it with the zipf key draws.
	arrivalSeedOffset int64 = 0x9E3779B9

	// eventBudgetPerMovedKey sizes the watchdog slack for rebalance storms
	// (a 64-item transfer batch costs ~6 events, so 8 per key is generous).
	eventBudgetPerMovedKey = 8

	// Control-plane frames: wipe/transfer/repair commands from the
	// coordinator and completions back to it, plus a per-key reference in
	// transfer commands. The coordinator may not touch a server's store, so
	// intent travels over the fabric like everything else.
	ctrlMsgBytes    = 32
	ctrlKeyRefBytes = 8

	// writeValueBytes sizes the values quorum writes store.
	writeValueBytes = 32
	// maxChurnServers bounds how many servers take part in rolling
	// failures (never all of them: one always stays in the ring).
	maxChurnServers = 2
)

// Fleet is a replicated KVS cluster on one partitioned simulation: N
// servers behind a consistent-hash ring with R-way replica sets, membership
// epochs (Join/Leave → rebalance storms charged through the engines and
// fabric), quorum writes and read-repair. Client loops, the ring
// coordinator and all fleet counters live on partition 0 (Sim, ctrlEP);
// server i runs on partition i+1. Coordinator-to-server state changes
// (wipe, rebalance transfers, read-repair) travel as control messages, so
// every partition only ever touches its own state and results are
// byte-identical at any host worker count. Replicated writes commit at a
// majority of their replicas.
type Fleet struct {
	Sim         *des.Sim // partition 0: clients and coordinator
	Fabric      *netsim.Fabric
	Servers     []*kvs.Server // indexed by server id; ring members ⊆ [0, len)
	Ring        *kvs.Ring
	Replication int

	// Probe, when non-nil, observes epochs, rebalances, replica reads,
	// failovers, repairs and quorum writes (obs layer).
	Probe obs.FleetProbe

	pd     *des.Partitioned
	ctrlEP *netsim.Endpoint

	serverEPs []*netsim.Endpoint
	keys      [][]byte // loaded keys, in load order (rebalance iteration order)
	hashes    []uint64 // hashfn.HashBytes of each loaded key
	// placement holds every loaded key's replica set under the current
	// ring, Replication slots per key: key k's set is the first
	// min(Replication, members) ids from placement[k*Replication], in
	// ReplicaOwners order. f.Ring changes only in advanceRing, which
	// rewrites the table in the same event, and only partition 0 reads or
	// writes it, so every read equals a fresh lookup on f.Ring.
	placement []int
	repairing map[repairKey]bool

	// Run counters, copied into FleetResults.
	Epochs    uint64
	KeysMoved uint64 // ownership transfers enqueued by rebalance
	KeysLost  uint64 // keys whose last live replica vanished (no donor)
	Repairs   uint64 // read-repair writes acknowledged
	Failovers uint64 // sub-batch retries rotated to the next replica

	// Overload-control counters (armed by the fault plan's hedge=/budget=
	// keys), copied into FleetResults.
	Hedges       uint64 // hedged duplicate reads issued after the hedge delay
	HedgeWins    uint64 // hedges whose response resolved keys before the primary
	BudgetDenied uint64 // retries forgone because the client budget was empty
}

type repairKey struct {
	server int
	key    int // index into keys
}

// NewFleet builds a fleet of the given servers with R-way replication on a
// fresh epoch-0 ring. The fabric must be partitioned (netsim.Fabric.
// Partition) on an engine with one partition for the clients and
// coordinator (sim) plus one per server.
func NewFleet(sim *des.Sim, fabric *netsim.Fabric, servers []*kvs.Server, replication int) (*Fleet, error) {
	if len(servers) == 0 {
		return nil, &ConfigError{Field: "servers", Reason: "fleet needs at least one server"}
	}
	if replication < 1 {
		replication = 1
	}
	if replication > len(servers) {
		return nil, &ConfigError{Field: "replication",
			Reason: fmt.Sprintf("replication %d exceeds %d servers", replication, len(servers))}
	}
	ring, err := kvs.NewRing(len(servers), 0)
	if err != nil {
		return nil, err
	}
	pd := fabric.PartitionedEngine()
	if pd == nil {
		return nil, &ConfigError{Field: "fabric", Reason: "fleet needs a partitioned fabric (netsim.Fabric.Partition)"}
	}
	if pd.Parts() != len(servers)+1 {
		return nil, &ConfigError{Field: "partitions",
			Reason: fmt.Sprintf("engine has %d partitions, fleet needs %d (clients + one per server)", pd.Parts(), len(servers)+1)}
	}
	if sim != pd.Sim(0) {
		return nil, &ConfigError{Field: "sim", Reason: "fleet sim must be the engine's partition 0 (the client/coordinator partition)"}
	}
	eps := make([]*netsim.Endpoint, len(servers))
	for i, srv := range servers {
		if srv.Sim != pd.Sim(i+1) {
			return nil, &ConfigError{Field: "servers",
				Reason: fmt.Sprintf("server %d must run on the engine's partition %d", i, i+1)}
		}
		eps[i] = fabric.EndpointAt(fmt.Sprintf("server-%d", i), i+1)
	}
	return &Fleet{
		Sim:         sim,
		Fabric:      fabric,
		Servers:     servers,
		Ring:        ring,
		Replication: replication,
		pd:          pd,
		ctrlEP:      fabric.EndpointAt("coordinator", 0),
		serverEPs:   eps,
		repairing:   make(map[repairKey]bool),
	}, nil
}

// LoadFleet loads `count` memslap-style items — fixed-width decimal keys
// ("key-" + zero-padded ordinal, padded to keyBytes) carrying valueBytes
// values — placing each on all R replicas of its key. A failed Set
// surfaces as a typed *LoadError.
func (f *Fleet) LoadFleet(count, keyBytes, valueBytes int) ([][]byte, error) {
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	return f.load(count, func(i int) ([]byte, []byte) { return makeKey(i, keyBytes), value })
}

// LoadETC loads `count` items whose key and value sizes follow the
// Facebook ETC distributions (workload.ETC, seeded with seed) instead of
// fixed memslap sizes, placing each on all R replicas of its key. The KVS
// harness uses it for the realistic-sizes variant of the Section VI study.
func (f *Fleet) LoadETC(count int, seed int64) ([][]byte, error) {
	etc := workload.NewETC(seed)
	return f.load(count, func(i int) ([]byte, []byte) {
		it := etc.Items(1)[0]
		value := make([]byte, it.ValLen)
		for j := range value {
			value[j] = byte('A' + (i+j)%26)
		}
		return makeKey(i, it.KeyLen), value
	})
}

// load places loadRingKeys's sequence on the ring's replica sets and
// records it as the fleet's key set, with each key's hash and replica set.
func (f *Fleet) load(count int, item func(i int) (key, value []byte)) ([][]byte, error) {
	R := f.Replication
	hashes := make([]uint64, 0, count)
	placement := make([]int, count*R)
	keys, err := loadRingKeys(count, item, func(key, value []byte, h uint64) (int, error) {
		at := len(hashes) * R
		hashes = append(hashes, h)
		for _, s := range f.Ring.ReplicaOwners(h, R, placement[at:at:at+R]) {
			if _, err := f.Servers[s].Set(key, value); err != nil {
				return s, err
			}
		}
		return -1, nil
	})
	if err != nil {
		return nil, err
	}
	f.keys, f.hashes, f.placement = keys, hashes, placement
	return keys, nil
}

// owners returns key k's replica set under the current ring. It aliases the
// placement table, so a caller that keeps it past the current event copies
// it.
func (f *Fleet) owners(k int) []int {
	at := k * f.Replication
	return f.placement[at : at+min(f.Replication, f.Ring.Servers())]
}

// Leave removes server id from the ring (next epoch), wipes its store —
// the crash model is a dead process, not a graceful drain — and starts the
// rebalance that re-establishes R live replicas for the keys it held.
func (f *Fleet) Leave(id int) error {
	nr, err := f.Ring.Leave(id)
	if err != nil {
		return err
	}
	// The coordinator may not wipe a remote store directly; the kill travels
	// as a control message to the server's own partition.
	wiped := false
	f.ctrlEP.Send(f.serverEPs[id], ctrlMsgBytes, func() {
		if wiped {
			return // duplicate delivery
		}
		wiped = true
		f.Servers[id].Wipe()
	})
	f.advanceRing(nr, id, false)
	return nil
}

// Join adds server id back to the ring (next epoch) and starts the
// rebalance that streams its share of the key space onto it — it rejoined
// cold, so everything it now owns must be transferred.
func (f *Fleet) Join(id int) error {
	if id < 0 || id >= len(f.Servers) {
		return &ConfigError{Field: "server", Reason: fmt.Sprintf("server %d outside fleet of %d", id, len(f.Servers))}
	}
	nr, err := f.Ring.Join(id)
	if err != nil {
		return err
	}
	f.advanceRing(nr, id, true)
	return nil
}

// advanceRing installs the new epoch and ships the ownership transfers it
// implies: for every key whose replica set gained a server, a surviving
// replica streams the item to the new owner. The coordinator cannot read
// donor stores, so it picks donors from ring membership alone, counts the
// moves optimistically, and ships each (src, dst) group as a control
// message to the source server. The source resolves its local store,
// streams what it has in rebalanceBatchItems-sized messages through the
// destination's charged HandleReplicate, and reports back how many keys
// were missing; the coordinator then corrects KeysMoved/KeysLost and fires
// RebalanceDone when the last group completes. Transfers compete with
// foreground traffic for NICs and workers — nothing is teleported. A key
// with no live donor is counted lost (with R=1 a wiped server's data is
// simply gone until rewritten).
//
// The placement table supplies each key's old replica set; the new one is
// computed from the key's stored hash and written back in its place.
func (f *Fleet) advanceRing(nr *kvs.Ring, server int, join bool) {
	R := f.Replication
	oldM := min(R, f.Ring.Servers())
	f.Ring = nr
	f.Epochs++

	type cmdGroup struct {
		src, dst int
		keys     [][]byte
	}
	var groups []*cmdGroup
	groupIdx := make(map[[2]int]*cmdGroup)
	moved, lost := 0, 0
	oldSet := make([]int, 0, R)
	for k, key := range f.keys {
		at := k * R
		oldSet = append(oldSet[:0], f.placement[at:at+oldM]...)
		newSet := nr.ReplicaOwners(f.hashes[k], R, f.placement[at:at:at+R])
		for _, d := range newSet {
			if containsInt(oldSet, d) {
				continue
			}
			src := -1
			for _, s := range oldSet {
				if s != d && nr.HasMember(s) {
					src = s
					break
				}
			}
			if src < 0 {
				lost++
				continue
			}
			gk := [2]int{src, d}
			g := groupIdx[gk]
			if g == nil {
				g = &cmdGroup{src: src, dst: d}
				groupIdx[gk] = g
				groups = append(groups, g)
			}
			g.keys = append(g.keys, key)
			moved++
		}
	}
	f.KeysMoved += uint64(moved)
	f.KeysLost += uint64(lost)
	start := f.Sim.Now()
	epoch := nr.Epoch()
	if f.Probe != nil {
		f.Probe.EpochAdvanced(epoch, server, join, moved, lost, start)
	}
	if moved == 0 {
		if f.Probe != nil {
			f.Probe.RebalanceDone(epoch, 0, start, start)
		}
		return
	}
	outstanding := len(groups)
	movedTotal := moved
	for _, g := range groups {
		g := g
		cmdBytes := ctrlMsgBytes + len(g.keys)*ctrlKeyRefBytes
		started := false
		f.ctrlEP.Send(f.serverEPs[g.src], cmdBytes, func() {
			if started {
				return // duplicate command delivery
			}
			started = true
			f.runTransfer(g.src, g.dst, g.keys, func(shipped, missing int) {
				// Completion, delivered back at the coordinator.
				f.KeysMoved -= uint64(missing)
				f.KeysLost += uint64(missing)
				movedTotal -= missing
				outstanding--
				if outstanding == 0 && f.Probe != nil {
					f.Probe.RebalanceDone(epoch, movedTotal, start, f.Sim.Now())
				}
			})
		})
	}
}

// runTransfer executes a transfer command as a delivery event on the source
// server's partition: resolve each key against the local store, stream the
// present ones to dst in protocol-sized batches through the charged
// HandleReplicate path, and once every batch is acknowledged send a
// completion to the coordinator carrying the miss count. Only source-local
// and (via messages) destination-local state is touched.
func (f *Fleet) runTransfer(src, dst int, keys [][]byte, done func(shipped, missing int)) {
	items := make([]kvs.ReplicaItem, 0, len(keys))
	missing := 0
	for _, key := range keys {
		val, ok := f.Servers[src].Get(key)
		if !ok {
			missing++
			continue
		}
		items = append(items, kvs.ReplicaItem{Key: key, Value: val})
	}
	shipped := len(items)
	complete := func() {
		reported := false
		f.serverEPs[src].Send(f.ctrlEP, ctrlMsgBytes, func() {
			if reported {
				return // duplicate completion delivery
			}
			reported = true
			done(shipped, missing)
		})
	}
	if shipped == 0 {
		complete()
		return
	}
	remaining := (shipped + rebalanceBatchItems - 1) / rebalanceBatchItems
	for from := 0; from < len(items); from += rebalanceBatchItems {
		to := min(from+rebalanceBatchItems, len(items))
		batch := items[from:to]
		bytes := 0
		for _, it := range batch {
			bytes += len(it.Key) + len(it.Value) + replicaItemOverheadBytes
		}
		acked := false
		f.serverEPs[src].Send(f.serverEPs[dst], bytes, func() {
			f.Servers[dst].HandleReplicate(batch, func(applied int) {
				f.serverEPs[dst].Send(f.serverEPs[src], replicaAckBytes, func() {
					if acked {
						return // duplicate delivery
					}
					acked = true
					remaining--
					if remaining == 0 {
						complete()
					}
				})
			})
		})
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// FleetConfig extends the memslap Config with fleet semantics. The zero
// extension (replication handled by the Fleet, everything else off) runs
// the closed-loop pipeline.
type FleetConfig struct {
	Config

	// ArrivalRate switches the load generator to open loop: Multi-Gets
	// arrive at this aggregate rate (requests/s of virtual time) regardless
	// of completions, exposing queueing delay instead of coordinated
	// omission. 0 keeps the closed loop, where each of Clients workers
	// issues its next request on completion.
	ArrivalRate float64
	// DeterministicArrivals uses fixed 1/rate inter-arrival gaps instead of
	// the default seeded Poisson (exponential) process.
	DeterministicArrivals bool

	// WriteFraction routes this fraction of open/closed-loop requests
	// through the quorum-write path (a single-key replicated set). 0 (the
	// default) draws nothing from the RNG beyond the zipf key stream.
	WriteFraction float64

	// Churn schedules ring membership churn from the fault plan's crash
	// windows: each participating server (the first min(2, servers-1))
	// Leaves at its window start and Joins (cold) at window end — rolling
	// failures with rebalance storms. Requires open-loop arrivals and a plan
	// with crash windows.
	Churn bool

	// FleetProbe, when non-nil, observes fleet events (obs layer).
	FleetProbe obs.FleetProbe
}

// FleetResults aggregates a fleet run.
type FleetResults struct {
	Backend        string // the servers' index backend
	Servers        int
	Replication    int
	BatchSize      int
	Requests       int
	ThroughputKeys float64 // aggregate keys/s across the fleet
	AvgLatency     float64 // end-to-end Multi-Get latency (all sub-batches)
	P50Latency     float64
	P99Latency     float64
	P999Latency    float64
	HitRate        float64
	AvgFanout      float64 // servers touched per Multi-Get

	// Breakdown is the server phase time (Fig. 11b) per sub-batch, averaged
	// over the responses that resolved keys of measured requests. It is
	// taken at the client because the coordinator may not reset a server's
	// stats when warm-up ends. WorkerUtil is the servers' mean worker
	// utilization over the whole run.
	Breakdown  kvs.PhaseBreakdown
	WorkerUtil float64

	// Degradation-protocol accounting (all zero with a nil fault plan).
	// A Multi-Get is degraded when any of its sub-batches exhausted its
	// retries; KeysMissing counts the abandoned keys, and GoodputKeys is
	// the throughput of keys actually returned.
	Retries     uint64
	Timeouts    uint64
	Degraded    uint64
	KeysMissing uint64
	GoodputKeys float64

	// Open-loop accounting. QueueDelay is end-to-end latency minus the
	// slowest sub-batch's service time — the time a request spent waiting
	// on NICs, worker queues, retries and backoffs.
	AvgQueueDelay float64
	P99QueueDelay float64
	MeasuredRate  float64 // measured arrival rate over the measured window

	// Replication/churn accounting.
	Epochs       uint64
	KeysMoved    uint64
	KeysLost     uint64
	Repairs      uint64
	Failovers    uint64
	Writes       uint64 // quorum writes committed in the measured window
	WritesFailed uint64

	// Overload-control accounting (all zero unless the plan arms qdepth=,
	// qdeadline=, budget= or hedge=). Server-side sheds are summed across
	// the fleet; like the fault counters they accumulate over warm-up and
	// measurement alike.
	ShedQueueFull  uint64 // batches rejected at admission (queue at qdepth)
	ShedDeadline   uint64 // queued batches shed at grant (waited > qdeadline)
	Hedges         uint64 // hedged duplicate reads issued
	HedgeWins      uint64 // hedges that resolved keys before the primary
	BudgetDenied   uint64 // retries forgone on an empty client budget
	QueueHighWater int    // max worker-queue depth observed on any server
}

// String renders a one-line summary.
func (r FleetResults) String() string {
	return fmt.Sprintf("%s n=%d: %.2f Mkeys/s, avg %.1f us, p99 %.1f us (hit %.1f%%)",
		r.Backend, r.BatchSize, r.ThroughputKeys/1e6, r.AvgLatency*1e6, r.P99Latency*1e6, r.HitRate*100)
}

// RunFleet drives the fleet: replicated reads with failover across replica
// ranks, read-repair on divergence, quorum writes, optional open-loop
// arrivals and fault-driven membership churn. See FleetConfig for the
// semantics of each knob.
func RunFleet(f *Fleet, cfg FleetConfig) (FleetResults, error) {
	servers := f.Servers
	if cfg.Clients <= 0 || cfg.BatchSize <= 0 || cfg.Requests <= 0 {
		return FleetResults{}, &ConfigError{Field: "clients/batch/requests", Reason: "must be positive"}
	}
	if len(f.keys) == 0 {
		return FleetResults{}, &ConfigError{Field: "keys", Reason: "LoadFleet must run before RunFleet"}
	}
	if cfg.ArrivalRate < 0 {
		return FleetResults{}, &ConfigError{Field: "arrival rate", Reason: "must be non-negative"}
	}
	if cfg.WriteFraction < 0 || cfg.WriteFraction >= 1 {
		return FleetResults{}, &ConfigError{Field: "write fraction", Reason: "must be in [0, 1)"}
	}
	if cfg.Churn {
		if cfg.ArrivalRate <= 0 {
			return FleetResults{}, &ConfigError{Field: "churn", Reason: "requires open-loop arrivals (ArrivalRate > 0)"}
		}
		if cfg.Faults == nil || cfg.Faults.Spec().CrashPeriod <= 0 {
			return FleetResults{}, &ConfigError{Field: "churn", Reason: "requires a fault plan with crash windows (the churn schedule)"}
		}
	}
	warmup := cfg.Requests / warmupDivisor
	f.Probe = cfg.FleetProbe

	sim, fabric, plan := f.Sim, f.Fabric, cfg.Faults
	for _, srv := range servers {
		srv.WarmCaches()
	}

	total := warmup + cfg.Requests
	issued, completed := 0, 0
	var latencies, queueDelays []float64
	var phases kvs.PhaseBreakdown
	var phaseResponses int
	var hits, served, returned uint64
	var retries, timeouts, degraded, missing uint64
	var writesDone, writesFailed uint64
	var fanoutSum int
	var measStart, measEnd float64
	var firstArr, lastArr float64
	arrCount := 0

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf, err := workload.NewZipf(len(f.keys), workload.DefaultZipfTheta, rng)
	if err != nil {
		return FleetResults{}, err
	}

	// Pressure bursts run on each server's own partition with the server's
	// own probe, out of reach of the coordinator's progress count. When the
	// last request completes, the coordinator posts each pressured server a
	// stop signal through the engine rather than the fabric: it ends the
	// experiment, it is not modelled traffic, and a fabric fault must not
	// drop it. Unarmed runs schedule and post nothing.
	var stopPressure []func()
	for i, srv := range servers {
		stopped := false
		if schedulePressure(srv, func() bool { return stopped }) {
			part := i + 1
			stopPressure = append(stopPressure, func() {
				f.pd.Post(0, part, sim.Now()+f.pd.Lookahead(), func() { stopped = true })
			})
		}
	}
	complete := func() {
		completed++
		if completed == total {
			for _, stop := range stopPressure {
				stop()
			}
		}
	}

	R := f.Replication
	writeSeq := 0

	var issueClosed func(clientEP *netsim.Endpoint, budget *retryBudget)

	// startRead issues one replicated Multi-Get. Sub-batches go to each
	// key's primary replica first; on timeout the unresolved keys rotate to
	// their next replica rank (failover), bounded by the plan's retry
	// budget. Per-key resolution makes duplicate and stale deliveries
	// idempotent.
	startRead := func(clientEP *netsim.Endpoint, budget *retryBudget, seq int, closed bool) {
		sent := sim.Now()
		batch := make([]int, cfg.BatchSize) // key indices
		for i := range batch {
			batch[i] = zipf.Next()
		}
		pos0 := make([][]int, len(servers))
		fanout := f.ownerGroups(batch, pos0)
		resolved := make([]bool, len(batch))
		remaining := len(batch)
		foundTotal, servedKeys, missingKeys := 0, 0, 0
		reqRetries, reqTimeouts := 0, 0
		serviceMax := 0.0

		finish := func() {
			complete()
			if missingKeys > 0 && cfg.FaultProbe != nil {
				cfg.FaultProbe.BatchDegraded(servedKeys, missingKeys, sim.Now())
			}
			if seq > warmup {
				latencies = append(latencies, sim.Now()-sent)
				queueDelays = append(queueDelays, math.Max(0, sim.Now()-sent-serviceMax))
				hits += uint64(foundTotal)
				served += uint64(len(batch))
				returned += uint64(servedKeys)
				retries += uint64(reqRetries)
				timeouts += uint64(reqTimeouts)
				if missingKeys > 0 {
					degraded++
					missing += uint64(missingKeys)
				}
				fanoutSum += fanout
				measEnd = sim.Now()
			} else if seq == warmup {
				// Server stats are not reset here: the coordinator may not
				// touch them, and the shed/high-water counters FleetResults
				// reads accumulate over the whole run.
				measStart = sim.Now()
			}
			if closed {
				issueClosed(clientEP, budget)
			}
		}

		anyLive := func(pos []int) bool {
			for _, p := range pos {
				if !resolved[p] {
					return true
				}
			}
			return false
		}

		abandon := func(pos []int) {
			progressed := false
			for _, p := range pos {
				if resolved[p] {
					continue
				}
				resolved[p] = true
				remaining--
				missingKeys++
				progressed = true
			}
			if progressed && remaining == 0 {
				finish()
			}
		}

		resolveServed := func(target, rank int, pos []int, res kvs.MGetResult) {
			var repairPos []int
			progressed := false
			for j, p := range pos {
				if resolved[p] {
					continue
				}
				resolved[p] = true
				remaining--
				servedKeys++
				progressed = true
				if res.Values[j] != nil {
					foundTotal++
				} else {
					// Every key drawn is loaded, so a miss is divergence.
					repairPos = append(repairPos, p)
				}
			}
			if t := res.Breakdown.Total(); t > serviceMax {
				serviceMax = t
			}
			if progressed && seq > warmup {
				phases.Pre += res.Breakdown.Pre
				phases.Lookup += res.Breakdown.Lookup
				phases.Post += res.Breakdown.Post
				phaseResponses++
			}
			if f.Probe != nil {
				f.Probe.ReplicaRead(rank)
			}
			if len(repairPos) > 0 {
				f.scheduleRepairs(target, batch, repairPos)
			}
			// A duplicate or post-abandon (stale) delivery resolves nothing
			// and must not re-enter finish.
			if progressed && remaining == 0 {
				finish()
			}
		}

		var sendGroup func(target, rank, attempt int, pos []int, hedged bool)
		sendGroup = func(target, rank, attempt int, pos []int, hedged bool) {
			sub := make([][]byte, len(pos))
			for j, p := range pos {
				sub[j] = f.keys[batch[p]]
			}
			reqBytes := requestBytes(sub)
			// rotate advances this group to the next replica rank. It is
			// shared by the timeout and the rejected-response (server shed)
			// paths; the flag keeps whichever fires second from rotating the
			// same group twice. Every rotation must be covered by the
			// client's retry budget: an empty bucket abandons instead of
			// amplifying the overload that emptied it.
			rotated := false
			rotate := func() {
				rotated = true
				if attempt >= plan.MaxRetries() {
					abandon(pos)
					return
				}
				if !budget.spend() {
					f.BudgetDenied++
					if cfg.OverloadProbe != nil {
						cfg.OverloadProbe.BudgetDenied(sim.Now())
					}
					abandon(pos)
					return
				}
				next := attempt + 1
				nrank := rank + 1
				reqRetries++
				f.Failovers++
				if f.Probe != nil {
					f.Probe.Failover(nrank, sim.Now())
				}
				backoff := plan.BackoffFor(next)
				if cfg.FaultProbe != nil {
					cfg.FaultProbe.RetryScheduled(next, backoff, sim.Now())
				}
				sim.After(backoff, func() {
					// Regroup the still-unresolved keys by their
					// rank-nrank replica under the *current* ring, so
					// failover routes around membership changes too.
					perServer := make([][]int, len(servers))
					any := false
					for _, p := range pos {
						if resolved[p] {
							continue
						}
						owners := f.owners(batch[p])
						t := owners[nrank%len(owners)]
						perServer[t] = append(perServer[t], p)
						any = true
					}
					if !any {
						return
					}
					for s := 0; s < len(servers); s++ {
						if len(perServer[s]) > 0 {
							sendGroup(s, nrank, next, perServer[s], false)
						}
					}
				})
			}
			clientEP.Send(f.serverEPs[target], reqBytes, func() {
				servers[target].HandleMGet(sub, func(res kvs.MGetResult) {
					f.serverEPs[target].Send(clientEP, res.RespBytes, func() {
						if res.Rejected {
							// A shed is an explicit "try elsewhere": fail over
							// now instead of burning the rest of the timeout.
							// Hedge responses never rotate (the attempt they
							// hedge owns recovery), and a group that already
							// rotated or fully resolved ignores the shed.
							if hedged || rotated || !anyLive(pos) {
								return
							}
							if cfg.OverloadProbe != nil {
								cfg.OverloadProbe.RejectedObserved(rank, sim.Now())
							}
							rotate()
							return
						}
						if hedged && anyLive(pos) {
							// The hedge arrived while keys were still open —
							// it beat the attempt it was hedging.
							f.HedgeWins++
							if cfg.OverloadProbe != nil {
								cfg.OverloadProbe.HedgeWon(rank, sim.Now())
							}
						}
						resolveServed(target, rank, pos, res)
					})
				})
			})
			if plan == nil || hedged {
				// Hedges carry no timeout and never re-hedge: the hedged
				// attempt's own protocol owns recovery, so a lost hedge
				// costs one duplicate request and nothing else.
				return
			}
			if hd := plan.HedgeDelay(); hd > 0 && attempt == 0 && R > 1 {
				// Deterministic hedged read: after the hedge delay, keys
				// still unresolved get one duplicate read at the next
				// replica rank. First response wins through the same
				// per-key idempotent resolution failover uses; hedges spend
				// no retry budget and count toward no retry bound. Without
				// a second replica a hedge would re-ask the same server, so
				// R=1 fleets never hedge.
				sim.After(hd, func() {
					if rotated || !anyLive(pos) {
						return
					}
					hrank := rank + 1
					perServer := make([][]int, len(servers))
					any := false
					for _, p := range pos {
						if resolved[p] {
							continue
						}
						owners := f.owners(batch[p])
						t := owners[hrank%len(owners)]
						perServer[t] = append(perServer[t], p)
						any = true
					}
					if !any {
						return
					}
					f.Hedges++
					if cfg.OverloadProbe != nil {
						cfg.OverloadProbe.HedgeFired(hrank, sim.Now())
					}
					for s := 0; s < len(servers); s++ {
						if len(perServer[s]) > 0 {
							sendGroup(s, hrank, attempt, perServer[s], true)
						}
					}
				})
			}
			sim.After(plan.Timeout(), func() {
				if rotated || !anyLive(pos) {
					return
				}
				reqTimeouts++
				if cfg.FaultProbe != nil {
					cfg.FaultProbe.TimeoutFired(attempt, sim.Now())
				}
				rotate()
			})
		}

		// Iterate sub-batches in server order (not map order) so the issue
		// sequence — and with it every fault-RNG draw — is deterministic.
		for s := 0; s < len(servers); s++ {
			if len(pos0[s]) > 0 {
				sendGroup(s, 0, 0, pos0[s], false)
			}
		}
	}

	// startWrite issues one quorum write: the value goes to all R replicas
	// of a zipf-drawn key; the request completes at a majority of acks (or
	// degrades on timeout under an armed plan).
	startWrite := func(clientEP *netsim.Endpoint, budget *retryBudget, seq int, closed bool) {
		sent := sim.Now()
		writeSeq++
		k := zipf.Next()
		key := f.keys[k]
		value := make([]byte, writeValueBytes)
		for i := range value {
			value[i] = byte('A' + (writeSeq+i)%26)
		}
		// The write's closures outlive the current epoch, so they keep a
		// copy of its replica set.
		owners := append([]int(nil), f.owners(k)...)
		w := len(owners)/2 + 1 // majority quorum
		acks := 0
		finished := false
		finishWrite := func(ok bool) {
			finished = true
			complete()
			if ok && f.Probe != nil {
				f.Probe.QuorumWrite(acks, sim.Now())
			}
			if seq > warmup {
				latencies = append(latencies, sim.Now()-sent)
				fanoutSum += len(owners)
				if ok {
					writesDone++
				} else {
					writesFailed++
					degraded++
					timeouts++
				}
				measEnd = sim.Now()
			} else if seq == warmup {
				measStart = sim.Now()
			}
			if closed {
				issueClosed(clientEP, budget)
			}
		}
		bytes := len(key) + len(value) + replicaItemOverheadBytes
		for _, s := range owners {
			s := s
			acked := false
			clientEP.Send(f.serverEPs[s], bytes, func() {
				servers[s].HandleReplicate([]kvs.ReplicaItem{{Key: key, Value: value}}, func(applied int) {
					f.serverEPs[s].Send(clientEP, replicaAckBytes, func() {
						if acked {
							return // duplicate delivery
						}
						acked = true
						acks++
						if !finished && acks >= w {
							finishWrite(true)
						}
					})
				})
			})
		}
		if plan != nil {
			sim.After(plan.Timeout()*float64(plan.MaxRetries()+1), func() {
				if !finished {
					if cfg.FaultProbe != nil {
						cfg.FaultProbe.TimeoutFired(0, sim.Now())
					}
					finishWrite(false)
				}
			})
		}
	}

	issue := func(clientEP *netsim.Endpoint, budget *retryBudget, seq int, closed bool) {
		if cfg.WriteFraction > 0 && rng.Float64() < cfg.WriteFraction {
			startWrite(clientEP, budget, seq, closed)
		} else {
			startRead(clientEP, budget, seq, closed)
		}
	}
	issueClosed = func(clientEP *netsim.Endpoint, budget *retryBudget) {
		if issued >= total {
			return
		}
		issued++
		issue(clientEP, budget, issued, true)
	}

	if cfg.ArrivalRate > 0 {
		arrRng := rand.New(rand.NewSource(cfg.Seed + arrivalSeedOffset))
		clientEPs := make([]*netsim.Endpoint, cfg.Clients)
		clientBudgets := make([]*retryBudget, cfg.Clients)
		for c := range clientEPs {
			clientEPs[c] = fabric.Endpoint(fmt.Sprintf("client-%d", c))
			clientBudgets[c] = newRetryBudget(plan.RetryBudget())
		}
		draw := func() float64 {
			if cfg.DeterministicArrivals {
				return 1 / cfg.ArrivalRate
			}
			return arrRng.ExpFloat64() / cfg.ArrivalRate
		}
		var arrive func(at float64)
		arrive = func(at float64) {
			if issued >= total {
				return
			}
			issued++
			seq := issued
			if seq == warmup+1 {
				firstArr = at
			}
			if seq > warmup {
				lastArr = at
				arrCount++
			}
			issue(clientEPs[(seq-1)%cfg.Clients], clientBudgets[(seq-1)%cfg.Clients], seq, false)
			next := at + draw()
			sim.At(next, func() { arrive(next) })
		}
		first := draw()
		sim.At(first, func() { arrive(first) })
	} else {
		for c := 0; c < cfg.Clients; c++ {
			// Each client thread owns its retry budget, as each would in a
			// real client process.
			issueClosed(fabric.Endpoint(fmt.Sprintf("client-%d", c)), newRetryBudget(plan.RetryBudget()))
		}
	}

	maxEpochs := 0
	if cfg.Churn {
		spec := plan.Spec()
		churnN := min(maxChurnServers, f.Ring.Servers()-1)
		horizon := float64(total)/cfg.ArrivalRate*4 + spec.CrashPeriod
		maxEpochs = (int(horizon/spec.CrashPeriod) + 2) * churnN * 2
		stop := func() bool { return completed >= total }
		for i := 0; i < churnN; i++ {
			// The schedule mirrors server i's own crash windows (same
			// golden-ratio stagger the per-server plans use), so ring
			// epochs line up with the request drops CrashedAt produces.
			pi := plan.ForServer(i)
			var window func(k int)
			window = func(k int) {
				start, dur, ok := pi.CrashWindow(k)
				if !ok {
					return
				}
				if start <= sim.Now() {
					window(k + 1)
					return
				}
				i := i
				sim.At(start, func() {
					if stop() {
						return
					}
					if f.Ring.Servers() > 1 && f.Ring.HasMember(i) {
						if err := f.Leave(i); err != nil {
							return
						}
					}
					sim.At(start+dur, func() {
						if !f.Ring.HasMember(i) {
							_ = f.Join(i)
						}
						if stop() {
							return
						}
						window(k + 1)
					})
				})
			}
			window(1)
		}
	}

	budget := uint64(total)*eventBudgetPerRequest + eventBudgetSlack
	budget += uint64(total) * uint64(cfg.BatchSize) * 2 // failover + repair ceiling
	budget += uint64(maxEpochs+1) * uint64(len(f.keys)+1024) * eventBudgetPerMovedKey
	// The engine enforces the budget between time windows, so every
	// partition stops at the same horizon; the partition sims' own budgets
	// stay unarmed.
	f.pd.SetEventBudget(budget)
	f.pd.Run()
	if f.pd.BudgetExhausted() {
		return FleetResults{}, fmt.Errorf("memslap: watchdog: event budget %d exhausted after %d of %d requests — runaway fault/retry/rebalance loop", budget, completed, total)
	}
	if completed < total {
		return FleetResults{}, fmt.Errorf("memslap: deadlock — completed %d of %d requests", completed, total)
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
	out := FleetResults{
		Backend:        servers[0].Index.Name(),
		Servers:        len(servers),
		Replication:    R,
		BatchSize:      cfg.BatchSize,
		Requests:       n,
		ThroughputKeys: float64(served) / elapsed,
		AvgLatency:     sum / float64(n),
		P50Latency:     latencies[min(n-1, n*50/100)],
		P99Latency:     latencies[min(n-1, n*99/100)],
		P999Latency:    latencies[min(n-1, n*999/1000)],
		HitRate:        float64(hits) / float64(served),
		AvgFanout:      float64(fanoutSum) / float64(n),
		Retries:        retries,
		Timeouts:       timeouts,
		Degraded:       degraded,
		KeysMissing:    missing,
		GoodputKeys:    float64(returned) / elapsed,
		Epochs:         f.Epochs,
		KeysMoved:      f.KeysMoved,
		KeysLost:       f.KeysLost,
		Repairs:        f.Repairs,
		Failovers:      f.Failovers,
		Writes:         writesDone,
		WritesFailed:   writesFailed,
		Hedges:         f.Hedges,
		HedgeWins:      f.HedgeWins,
		BudgetDenied:   f.BudgetDenied,
	}
	if phaseResponses > 0 {
		n := float64(phaseResponses)
		out.Breakdown = kvs.PhaseBreakdown{Pre: phases.Pre / n, Lookup: phases.Lookup / n, Post: phases.Post / n}
	}
	for _, srv := range servers {
		out.ShedQueueFull += srv.ShedQueueFull
		out.ShedDeadline += srv.ShedDeadline
		if hw := srv.Workers.QueueHighWater(); hw > out.QueueHighWater {
			out.QueueHighWater = hw
		}
		out.WorkerUtil += srv.Workers.Utilization()
	}
	out.WorkerUtil /= float64(len(servers))
	if cfg.OverloadProbe != nil {
		// Report per-server high-water marks in server order so the gauge's
		// Max fold — and the rendered metric — is deterministic.
		for _, srv := range servers {
			cfg.OverloadProbe.QueueHighWater(srv.Workers.QueueHighWater())
		}
	}
	if len(queueDelays) > 0 {
		sort.Float64s(queueDelays)
		var qsum float64
		for _, q := range queueDelays {
			qsum += q
		}
		qn := len(queueDelays)
		out.AvgQueueDelay = qsum / float64(qn)
		out.P99QueueDelay = queueDelays[min(qn-1, qn*99/100)]
	}
	if arrCount > 1 && lastArr > firstArr {
		out.MeasuredRate = float64(arrCount-1) / (lastArr - firstArr)
	}
	return out, nil
}

// scheduleRepairs fires read-repair for divergent keys: a replica returned
// NOT_FOUND for keys the fleet knows are stored. The donor is chosen by ring
// membership alone and a repair command travels to it. The donor resolves
// the key locally — if present it streams the item to the divergent server
// through the charged HandleReplicate path, and the divergent server
// reports completion to the coordinator; if absent the donor reports
// failure so the in-flight entry retires and a later read can retry.
// In-flight repairs are deduped per (server, key); the repairing map doubles
// as the duplicate-completion guard, since both completion paths run at the
// coordinator, where the map lives.
func (f *Fleet) scheduleRepairs(target int, batch []int, repairPos []int) {
	count := 0
	for _, p := range repairPos {
		k := batch[p]
		owners := f.owners(k)
		if !containsInt(owners, target) {
			continue // ownership moved on; rebalance covers it
		}
		donor := -1
		for _, d := range owners {
			if d != target {
				donor = d
				break
			}
		}
		if donor < 0 {
			continue
		}
		rk := repairKey{server: target, key: k}
		if f.repairing[rk] {
			continue
		}
		f.repairing[rk] = true
		donor, target, key := donor, target, f.keys[k]
		issued := false
		f.ctrlEP.Send(f.serverEPs[donor], ctrlMsgBytes+ctrlKeyRefBytes, func() {
			if issued {
				return // duplicate command delivery
			}
			issued = true
			f.runRepair(donor, target, key, rk)
		})
		count++
	}
	if count > 0 && f.Probe != nil {
		f.Probe.ReadRepair(count, f.Sim.Now())
	}
}

// runRepair executes a repair command as a delivery event on the donor's
// partition: resolve the key locally and either stream it to the divergent
// server (whose ack travels to the coordinator) or report the miss.
func (f *Fleet) runRepair(donor, target int, key []byte, rk repairKey) {
	val, ok := f.Servers[donor].Get(key)
	if !ok {
		reported := false
		f.serverEPs[donor].Send(f.ctrlEP, ctrlMsgBytes, func() {
			if reported {
				return // duplicate delivery
			}
			reported = true
			delete(f.repairing, rk)
		})
		return
	}
	item := kvs.ReplicaItem{Key: key, Value: val}
	bytes := len(key) + len(val) + replicaItemOverheadBytes
	f.serverEPs[donor].Send(f.serverEPs[target], bytes, func() {
		f.Servers[target].HandleReplicate([]kvs.ReplicaItem{item}, func(applied int) {
			f.serverEPs[target].Send(f.ctrlEP, replicaAckBytes, func() {
				if f.repairing[rk] {
					f.Repairs++
					delete(f.repairing, rk)
				}
			})
		})
	})
}

// ownerGroups is the per-server split of a Multi-Get's request phase: it
// appends each batch position, in key order, to the group of its key's
// primary owner under the current ring, and returns how many servers own
// at least one key. batch holds key indices.
func (f *Fleet) ownerGroups(batch []int, groups [][]int) int {
	fanout := 0
	for i, k := range batch {
		s := f.owners(k)[0]
		if len(groups[s]) == 0 {
			fanout++
		}
		groups[s] = append(groups[s], i)
	}
	return fanout
}
