package memslap

import (
	"fmt"
	"math"
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

	// counts is what the current run has counted, the control plane's ring
	// and repair counters included; RunFleet zeroes it and computes
	// FleetResults from it.
	counts fleetCounters
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
// were missing; the coordinator then corrects the moved and lost counts
// and fires RebalanceDone when the last group completes. Transfers compete
// with foreground traffic for NICs and workers — nothing is teleported. A
// key with no live donor is counted lost (with R=1 a wiped server's data
// is simply gone until rewritten).
//
// The placement table supplies each key's old replica set; the new one is
// computed from the key's stored hash and written back in its place.
func (f *Fleet) advanceRing(nr *kvs.Ring, server int, join bool) {
	R := f.Replication
	oldM := min(R, f.Ring.Servers())
	f.Ring = nr
	f.counts.epochs++

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
	f.counts.keysMoved += uint64(moved)
	f.counts.keysLost += uint64(lost)
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
				f.counts.keysMoved -= uint64(missing)
				f.counts.keysLost += uint64(missing)
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

	// Key accounting of the measured reads: a requested key is either
	// returned (a server answered for it, hit or miss) or missing, and
	// RunFleet fails a run where KeysRequested != KeysReturned +
	// KeysMissing.
	KeysRequested uint64
	KeysReturned  uint64

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
	if err := cfg.validate(f); err != nil {
		return FleetResults{}, err
	}
	f.Probe = cfg.FleetProbe
	for _, srv := range f.Servers {
		srv.WarmCaches()
	}
	r, err := newFleetRun(f, cfg)
	if err != nil {
		return FleetResults{}, err
	}
	r.armPressure()
	r.start()
	maxEpochs := 0
	if cfg.Churn {
		maxEpochs = r.scheduleChurn()
	}

	budget := uint64(r.total)*eventBudgetPerRequest + eventBudgetSlack
	budget += uint64(r.total) * uint64(cfg.BatchSize) * 2 // failover + repair ceiling
	budget += uint64(maxEpochs+1) * uint64(len(f.keys)+1024) * eventBudgetPerMovedKey
	// The engine enforces the budget between time windows, so every
	// partition stops at the same horizon; the partition sims' own budgets
	// stay unarmed.
	f.pd.SetEventBudget(budget)
	f.pd.Run()
	if f.pd.BudgetExhausted() {
		return FleetResults{}, fmt.Errorf("memslap: watchdog: event budget %d exhausted after %d of %d requests — runaway fault/retry/rebalance loop", budget, r.completed, r.total)
	}
	if r.completed < r.total {
		return FleetResults{}, fmt.Errorf("memslap: deadlock — completed %d of %d requests", r.completed, r.total)
	}
	if c := f.counts; c.keysRequested != c.keysReturned+c.keysMissing {
		return FleetResults{}, fmt.Errorf("memslap: key accounting: %d keys requested, but %d returned + %d missing",
			c.keysRequested, c.keysReturned, c.keysMissing)
	}
	return r.results(), nil
}

// validate rejects a config RunFleet cannot run on f.
func (cfg FleetConfig) validate(f *Fleet) error {
	if cfg.Clients <= 0 || cfg.BatchSize <= 0 || cfg.Requests <= 0 {
		return &ConfigError{Field: "clients/batch/requests", Reason: "must be positive"}
	}
	if len(f.keys) == 0 {
		return &ConfigError{Field: "keys", Reason: "LoadFleet must run before RunFleet"}
	}
	// Negated range tests, so NaN fails them too.
	if !(cfg.ArrivalRate >= 0 && cfg.ArrivalRate <= math.MaxFloat64) {
		return &ConfigError{Field: "arrival rate", Reason: fmt.Sprintf("%g is not finite and non-negative", cfg.ArrivalRate)}
	}
	if !(cfg.WriteFraction >= 0 && cfg.WriteFraction < 1) {
		return &ConfigError{Field: "write fraction", Reason: fmt.Sprintf("%g is not in [0, 1)", cfg.WriteFraction)}
	}
	if cfg.Churn {
		if cfg.ArrivalRate <= 0 {
			return &ConfigError{Field: "churn", Reason: "requires open-loop arrivals (ArrivalRate > 0)"}
		}
		if cfg.Faults == nil || cfg.Faults.Spec().CrashPeriod <= 0 {
			return &ConfigError{Field: "churn", Reason: "requires a fault plan with crash windows (the churn schedule)"}
		}
	}
	return nil
}

// scheduleChurn arms the rolling failures and returns the most ring epochs
// they can install. The schedule mirrors each churn server's own crash
// windows (the same golden-ratio stagger the per-server plans use), so ring
// epochs line up with the request drops CrashedAt produces.
func (r *fleetRun) scheduleChurn() int {
	f, sim, plan := r.f, r.sim, r.plan
	spec := plan.Spec()
	churnN := min(maxChurnServers, f.Ring.Servers()-1)
	horizon := float64(r.total)/r.cfg.ArrivalRate*4 + spec.CrashPeriod
	stop := func() bool { return r.completed >= r.total }
	for i := 0; i < churnN; i++ {
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
	return (int(horizon/spec.CrashPeriod) + 2) * churnN * 2
}

// results computes FleetResults from the run's counters, its latency
// samples and the servers' own counters.
func (r *fleetRun) results() FleetResults {
	f, c := r.f, &r.f.counts
	elapsed := r.measEnd - r.measStart
	if elapsed <= 0 {
		elapsed = math.SmallestNonzeroFloat64
	}
	latencies := r.latencies
	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	n := len(latencies)
	out := FleetResults{
		Backend:        f.Servers[0].Index.Name(),
		Servers:        len(f.Servers),
		Replication:    f.Replication,
		BatchSize:      r.cfg.BatchSize,
		Requests:       n,
		ThroughputKeys: float64(c.keysRequested) / elapsed,
		AvgLatency:     sum / float64(n),
		P50Latency:     latencies[min(n-1, n*50/100)],
		P99Latency:     latencies[min(n-1, n*99/100)],
		P999Latency:    latencies[min(n-1, n*999/1000)],
		HitRate:        float64(c.keysFound) / float64(c.keysRequested),
		AvgFanout:      float64(c.fanout) / float64(n),
		Retries:        c.retries,
		Timeouts:       c.timeouts,
		Degraded:       c.degraded,
		KeysMissing:    c.keysMissing,
		GoodputKeys:    float64(c.keysReturned) / elapsed,
		KeysRequested:  c.keysRequested,
		KeysReturned:   c.keysReturned,
		Epochs:         c.epochs,
		KeysMoved:      c.keysMoved,
		KeysLost:       c.keysLost,
		Repairs:        c.repairs,
		Failovers:      c.failovers,
		Writes:         c.writes,
		WritesFailed:   c.writesFailed,
		Hedges:         c.hedges,
		HedgeWins:      c.hedgeWins,
		BudgetDenied:   c.budgetDenied,
	}
	if c.phaseResponses > 0 {
		n := float64(c.phaseResponses)
		out.Breakdown = kvs.PhaseBreakdown{Pre: c.phases.Pre / n, Lookup: c.phases.Lookup / n, Post: c.phases.Post / n}
	}
	for _, srv := range f.Servers {
		out.ShedQueueFull += srv.ShedQueueFull
		out.ShedDeadline += srv.ShedDeadline
		if hw := srv.Workers.QueueHighWater(); hw > out.QueueHighWater {
			out.QueueHighWater = hw
		}
		out.WorkerUtil += srv.Workers.Utilization()
	}
	out.WorkerUtil /= float64(len(f.Servers))
	if r.cfg.OverloadProbe != nil {
		// Report per-server high-water marks in server order so the gauge's
		// Max fold — and the rendered metric — is deterministic.
		for _, srv := range f.Servers {
			r.cfg.OverloadProbe.QueueHighWater(srv.Workers.QueueHighWater())
		}
	}
	if qn := len(r.queueDelays); qn > 0 {
		sort.Float64s(r.queueDelays)
		var qsum float64
		for _, q := range r.queueDelays {
			qsum += q
		}
		out.AvgQueueDelay = qsum / float64(qn)
		out.P99QueueDelay = r.queueDelays[min(qn-1, qn*99/100)]
	}
	if r.arrCount > 1 && r.lastArr > r.firstArr {
		out.MeasuredRate = float64(r.arrCount-1) / (r.lastArr - r.firstArr)
	}
	return out
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
					f.counts.repairs++
					delete(f.repairing, rk)
				}
			})
		})
	})
}
