package memslap

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"simdhtbench/internal/des"
	"simdhtbench/internal/hashfn"
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
// every partition only ever touches its own state and every cross-partition
// effect arrives at least one lookahead later. Replicated writes commit at
// a majority of their replicas. The loaded keys' replica sets live in an
// arc table, one sequence per arc of the epoch-0 ring, so an epoch costs a
// ring walk per arc, not per key.
type Fleet struct {
	Sim         *des.Sim // partition 0: clients and coordinator
	Fabric      *netsim.Fabric
	Servers     []*kvs.Server // indexed by server id; ring members ⊆ [0, len)
	Ring        *kvs.Ring
	Replication int

	// probe is the running FleetConfig.FleetProbe, which RunFleet installs;
	// when non-nil it observes epochs, rebalances, replica reads,
	// failovers, repairs and quorum writes (obs layer).
	probe obs.FleetProbe

	pd     *des.Partitioned
	ctrlEP *netsim.Endpoint

	serverEPs []*netsim.Endpoint
	keys      [][]byte // loaded keys, in load order (rebalance iteration order)
	// arcs holds every loaded key's replica set under f.Ring. f.Ring
	// changes only in advanceRing, which advances the table in the same
	// event, and only partition 0 reads or writes it, so every read equals
	// a fresh lookup on f.Ring.
	arcs      arcTable
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
		arcs:        newArcTable(ring, replication),
		repairing:   make(map[repairKey]bool),
	}, nil
}

// LoadFleet loads `count` memslap-style items — fixed-width decimal keys
// ("key-" + zero-padded ordinal, padded to keyBytes) carrying one shared
// valueBytes value — onto all R replicas of each key, one server at a time
// (see load). A failed Set surfaces as a typed *LoadError.
func (f *Fleet) LoadFleet(count, keyBytes, valueBytes int) ([][]byte, error) {
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	return f.load(count, keyBytes,
		func(dst []byte, i int) ([]byte, int) { return appendKey(dst, i, keyBytes), valueBytes },
		func(int, int) []byte { return value })
}

// etcMeanKeyBytes is about the mean ETC key length (workload.ETC: 16 bytes
// plus a generalized Pareto of mean 14), so an ETC load's key buffer
// rarely grows.
const etcMeanKeyBytes = 32

// LoadETC loads `count` items whose key and value sizes follow the
// Facebook ETC distributions (workload.ETC, seeded with seed) instead of
// fixed memslap sizes, onto all R replicas of each key, one server at a
// time (see load). The KVS harness uses it for the realistic-sizes variant
// of the Section VI study. The value of the i-th candidate is the letters
// 'A'+(i+j)%26; it is written into one buffer each time a server stores
// it, so no value is held between its draw and its servers' turns.
func (f *Fleet) LoadETC(count int, seed int64) ([][]byte, error) {
	etc := workload.NewETC(seed)
	var buf []byte
	return f.load(count, etcMeanKeyBytes,
		func(dst []byte, i int) ([]byte, int) {
			it := etc.Item()
			return appendKey(dst, i, it.KeyLen), it.ValLen
		},
		func(i, n int) []byte {
			buf = slices.Grow(buf[:0], n)[:n]
			for j := range buf {
				buf[j] = byte('A' + (i+j)%26)
			}
			return buf
		})
}

// load loads the fleet in two phases and records the keys and their arcs.
// planLoad draws, hashes and places every key, setting nothing; then each
// server, in id order, stores its whole share in load order through one
// kvs.Server.Load, with the plan's 32-bit hashes and its item table grown
// once to exactly that share. item appends candidate i's key to dst and
// returns the longer slice and the value length, in order of i; keyBytes
// is the expected key length, which sizes the plan's key buffer. value(i,
// n) returns candidate i's value of n bytes, which only needs to last until
// the next call.
//
// Every server has its own address space, item store and index, so each
// sees the same Sets in the same order as a key-major loop that sets each
// key on its replicas in turn, and ends in the same state; only the host's
// working set shrinks to one server's. A failing Set is reported as the
// key-major loop would meet it first: at the lowest key index, then the
// first server in that key's replica order.
func (f *Fleet) load(count, keyBytes int, item func(dst []byte, i int) ([]byte, int), value func(i, n int) []byte) ([][]byte, error) {
	p := f.planLoad(count, keyBytes, item)
	var failed *LoadError
	failAt := 0 // failed's position in the key-major loop's sequence of Sets
	for s, srv := range f.Servers {
		share := p.order[p.first[s]:p.first[s+1]]
		j, err := srv.Load(len(share), func(j int) ([]byte, []byte, uint32) {
			k := share[j]
			return p.keys[k], value(int(p.ord[k]), int(p.valLen[k])), p.h32[k]
		})
		if err == nil {
			continue
		}
		k := int(share[j])
		if at := k*f.arcs.width + slices.Index(f.arcs.arcOwners(p.arc[k]), s); failed == nil || at < failAt {
			failed, failAt = &LoadError{Server: s, Loaded: k, Want: count, Err: err}, at
		}
	}
	if failed != nil {
		return nil, failed
	}
	if p.err != nil {
		return nil, p.err
	}
	f.keys, f.arcs.keyArc = p.keys, p.arc
	return p.keys, nil
}

// loadPlan is a fleet load laid out before any Set: the keys in load order,
// each with the ordinal of the candidate it was drawn as, its value length,
// its arc and its kvs.Hash32, and every server's share as key indexes in
// load order (server s stores order[first[s]:first[s+1]]).
type loadPlan struct {
	keys             [][]byte
	ord, valLen, arc []int32
	h32              []uint32
	first, order     []int32
	// err is the *LoadError that stopped the draw short of its count, or
	// nil. A Set failure on a drawn key comes first in load order.
	err error
}

// planLoad draws count keys and lays out each server's share. Candidate i
// is item(buf, i), drawn in order; a candidate whose 32-bit hash
// (kvs.Hash32, the mix of its hashfn.HashBytes value) repeats an earlier
// key's is skipped (a hashSet keeps the first), so every loaded key is
// retrievable through the SIMD index (which resolves by full-key
// verification only within one hash). Each key is hashed once. Every key
// is appended to one buffer, sized for count keys of keyBytes, and a
// skipped candidate's bytes are dropped again; the keys are cut from the
// final buffer, each with no spare capacity, so a load whose keys are
// keyBytes long makes one allocation for all of them. The shares come from
// the arc table: the keys per arc are added to each of the arc's R owners,
// and one counting sort over the keys in load order fills them.
func (f *Fleet) planLoad(count, keyBytes int, item func(dst []byte, i int) ([]byte, int)) *loadPlan {
	p := &loadPlan{
		ord:    make([]int32, 0, count),
		valLen: make([]int32, 0, count),
		arc:    make([]int32, 0, count),
		h32:    make([]uint32, 0, count),
	}
	buf := make([]byte, 0, count*keyBytes)
	ends := make([]int, 0, count) // key k is buf[ends[k-1]:ends[k]]
	seen := newHashSet(count)
	for i := 0; len(ends) < count; i++ {
		if i > count*2+1000 {
			p.err = &LoadError{Server: -1, Loaded: len(ends), Want: count,
				Err: fmt.Errorf("too many 32-bit hash collisions")}
			break
		}
		start := len(buf)
		var valLen int
		buf, valLen = item(buf, i)
		h := hashfn.HashBytes(buf[start:])
		h32 := hashfn.Mix64to32(h)
		if !seen.add(h32) {
			buf = buf[:start]
			continue
		}
		ends = append(ends, len(buf))
		p.ord = append(p.ord, int32(i))
		p.valLen = append(p.valLen, int32(valLen))
		p.arc = append(p.arc, f.arcs.arcOf(h))
		p.h32 = append(p.h32, h32)
	}
	p.keys = make([][]byte, len(ends))
	start := 0
	for k, end := range ends {
		p.keys[k] = buf[start:end:end]
		start = end
	}
	n := len(f.Servers)
	perArc := make([]int32, f.arcs.ring.Arcs())
	for _, a := range p.arc {
		perArc[a]++
	}
	p.first = make([]int32, n+1)
	for a, keys := range perArc {
		for _, s := range f.arcs.arcOwners(int32(a)) {
			p.first[s+1] += keys
		}
	}
	for s := 0; s < n; s++ {
		p.first[s+1] += p.first[s]
	}
	p.order = make([]int32, p.first[n])
	next := slices.Clone(p.first[:n])
	for k, a := range p.arc {
		for _, s := range f.arcs.arcOwners(a) {
			p.order[next[s]] = int32(k)
			next[s]++
		}
	}
	return p
}

// hashSet is planLoad's set of the 32-bit hashes it has kept: open
// addressing with linear probing over a power-of-two slot array at most
// half full, so an add is a multiply and a probe or two, with one
// allocation per load. A slot holds a hash or 0 (empty), so hash 0 has a
// flag of its own.
type hashSet struct {
	slots []uint32
	shift uint // 32 − log2(len(slots)): a hash's home slot is its top bits after a multiply
	zero  bool // whether hash 0 is in the set
}

// newHashSet returns an empty set with at least 2n slots, for up to n
// hashes.
func newHashSet(n int) hashSet {
	lg := bits.Len(uint(max(2*n-1, 1)))
	return hashSet{slots: make([]uint32, 1<<lg), shift: uint(32 - lg)}
}

// home returns the slot where the probe for h starts.
func (s *hashSet) home(h uint32) uint32 { return (h * 0x9e3779b9) >> s.shift }

// add inserts h and reports whether it was absent. The set must hold fewer
// hashes than it has slots.
func (s *hashSet) add(h uint32) bool {
	if h == 0 {
		absent := !s.zero
		s.zero = true
		return absent
	}
	mask := uint32(len(s.slots) - 1)
	for i := s.home(h); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = h
			return true
		case h:
			return false
		}
	}
}

// owners returns key k's replica set under the current ring: its arc's
// sequence in the arc table. It aliases the table, so a caller that keeps
// it past the current event copies it.
func (f *Fleet) owners(k int) []int { return f.arcs.owners(k) }

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
// The arc table plans the groups (arcTable.advance): one ring walk per arc
// of the epoch-0 ring, then one pass over the keys' arcs.
func (f *Fleet) advanceRing(nr *kvs.Ring, server int, join bool) {
	f.Ring = nr
	f.counts.epochs++
	groups, moved, lost := f.arcs.advance(nr)
	f.counts.keysMoved += uint64(moved)
	f.counts.keysLost += uint64(lost)
	start := f.Sim.Now()
	epoch := nr.Epoch()
	if f.probe != nil {
		f.probe.EpochAdvanced(epoch, server, join, moved, lost, start)
	}
	if moved == 0 {
		if f.probe != nil {
			f.probe.RebalanceDone(epoch, 0, start, start)
		}
		return
	}
	outstanding := len(groups)
	movedTotal := moved
	for i := range groups {
		g := &groups[i]
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
				if outstanding == 0 && f.probe != nil {
					f.probe.RebalanceDone(epoch, movedTotal, start, f.Sim.Now())
				}
			})
		})
	}
}

// runTransfer executes a transfer command as a delivery event on the source
// server's partition: resolve each key against the local store, stream the
// present ones to dst in protocol-sized batches through the charged
// HandleReplicate path, and once every batch is acknowledged send a
// completion to the coordinator carrying the miss count. keys are indexes
// into the loaded keys. Only source-local and (via messages)
// destination-local state is touched.
func (f *Fleet) runTransfer(src, dst int, keys []int32, done func(shipped, missing int)) {
	items := make([]kvs.ReplicaItem, 0, len(keys))
	missing := 0
	for _, k := range keys {
		key := f.keys[k]
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

// arcTable holds the loaded keys' replica sets as one sequence per arc of
// the epoch-0 ring over every fleet server. Every ring a fleet reaches
// holds a subset of that ring's points (Join takes only ids below
// len(Servers)), so each key's replica set is its arc's point's
// (kvs.Ring.ReplicaOwners). An epoch re-walks the ring once per arc, not
// once per key: 1,280 walks at 8 servers.
type arcTable struct {
	ring  *kvs.Ring // the epoch-0 ring: its point a ends arc a
	R     int
	width int // min(R, members) of the current ring: each sequence's length
	// seqs holds R slots per arc: arc a's replica sequence under the
	// current ring is seqs[a*R : a*R+width], in ReplicaOwners order.
	seqs   []int
	keyArc []int32 // each loaded key's arc, in load order
}

// moveGroup is one rebalance transfer command: the keys, as indexes in
// load order, that src streams to dst.
type moveGroup struct {
	src, dst int
	keys     []int32
}

// arcMove is one change an epoch makes to every key on an arc: dst joins
// its replica set, streamed from src, or from nowhere (src < 0: lost).
type arcMove struct{ src, dst int32 }

// newArcTable builds the arc table of ring, a fleet's epoch-0 ring over
// all of its servers, with R-way replica sequences and no keys.
func newArcTable(ring *kvs.Ring, R int) arcTable {
	t := arcTable{ring: ring, R: R, width: min(R, ring.Servers()), seqs: make([]int, ring.Arcs()*R)}
	for a := 0; a < ring.Arcs(); a++ {
		at := a * R
		ring.ReplicaOwners(ring.ArcHash(a), R, t.seqs[at:at:at+R])
	}
	return t
}

// arcOf returns the arc of the key hashing to h.
func (t *arcTable) arcOf(h uint64) int32 { return int32(t.ring.Arc(h)) }

// arcOwners returns arc a's replica sequence under the current ring.
func (t *arcTable) arcOwners(a int32) []int {
	at := int(a) * t.R
	return t.seqs[at : at+t.width]
}

// owners returns loaded key k's replica sequence under the current ring.
func (t *arcTable) owners(k int) []int { return t.arcOwners(t.keyArc[k]) }

// advance moves the table to ring nr and plans the rebalance: for every key
// whose replica set gained a server d, d joins the group of the donor src,
// the first old owner that is not d and is still a member, or the key is
// lost when no old owner is. groups come in the order their first key
// reaches them, scanning keys in load order and each key's new sequence in
// order, and hold their keys in load order. Every arc's sequence is
// rewritten, so one that changed without gaining a server (its owners
// shifted up when a member left a ring of R or fewer) reads right too.
func (t *arcTable) advance(nr *kvs.Ring) (groups []moveGroup, moved, lost int) {
	R, n := t.R, t.ring.Servers()
	oldW := t.width
	t.width = min(R, nr.Servers())
	arcs := t.ring.Arcs()
	var moves []arcMove
	first := make([]int32, arcs+1) // arc a's moves are moves[first[a]:first[a+1]]
	old := make([]int, 0, R)
	for a := 0; a < arcs; a++ {
		first[a] = int32(len(moves))
		at := a * R
		old = append(old[:0], t.seqs[at:at+oldW]...)
		for _, d := range nr.ReplicaOwners(t.ring.ArcHash(a), R, t.seqs[at:at:at+R]) {
			if containsInt(old, d) {
				continue
			}
			src := -1
			for _, s := range old {
				if s != d && nr.HasMember(s) {
					src = s
					break
				}
			}
			moves = append(moves, arcMove{src: int32(src), dst: int32(d)})
		}
	}
	first[arcs] = int32(len(moves))
	if len(moves) == 0 {
		return nil, 0, 0
	}
	groupOf := make([]int32, n*n) // (src, dst) -> 1 + index in groups; 0: none yet
	for k, a := range t.keyArc {
		for _, m := range moves[first[a]:first[a+1]] {
			if m.src < 0 {
				lost++
				continue
			}
			gi := &groupOf[int(m.src)*n+int(m.dst)]
			if *gi == 0 {
				groups = append(groups, moveGroup{src: int(m.src), dst: int(m.dst)})
				*gi = int32(len(groups))
			}
			g := &groups[*gi-1]
			g.keys = append(g.keys, int32(k))
			moved++
		}
	}
	return groups, moved, lost
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
	// arrive as a seeded Poisson process at this aggregate rate (requests/s
	// of virtual time) regardless of completions, exposing queueing delay
	// instead of coordinated omission. 0 keeps the closed loop, where each of Clients workers
	// issues its next request on completion.
	ArrivalRate float64

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
	// measurement alike. Nothing else counts these events: a study's
	// overload_* metric series are these fields, published at end of run.
	ShedQueueFull  uint64 // batches rejected at admission (queue at qdepth)
	ShedDeadline   uint64 // queued batches shed at grant (waited > qdeadline)
	Hedges         uint64 // hedged duplicate reads issued
	HedgeWins      uint64 // hedges that resolved keys before the primary
	BudgetDenied   uint64 // retries forgone on an empty client budget
	ClientRejects  uint64 // shed responses that ended an attempt before its timeout
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
	f.probe = cfg.FleetProbe
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
		r.scheduleChurn()
		maxEpochs, _ = cfg.churnEpochBound(f) // validate checked that it fits
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
		if _, ok := cfg.churnEpochBound(f); !ok {
			return &ConfigError{Field: "arrival rate", Reason: fmt.Sprintf(
				"%g req/s spreads %d requests over more crash periods than the churn watchdog's event budget can count",
				cfg.ArrivalRate, cfg.Requests)}
		}
	}
	return nil
}

// maxChurnBudget caps the watchdog events a churn run may reserve for
// rebalancing, so the budget RunFleet sums stays far inside uint64.
const maxChurnBudget = 1 << 62

// churnEpochBound returns the most ring epochs a churn run can install: a
// leave and a join per crash window of each churn server, over four times
// the arrival span plus two windows. It reports false when the rebalance
// budget those epochs need exceeds maxChurnBudget, as it does at arrival
// rates so low that the span holds more crash periods than an int counts.
func (cfg FleetConfig) churnEpochBound(f *Fleet) (int, bool) {
	period := cfg.Faults.Spec().CrashPeriod
	churnN := min(maxChurnServers, f.Ring.Servers()-1)
	total := cfg.Requests + cfg.Requests/warmupDivisor
	windows := (float64(total)/cfg.ArrivalRate*4 + period) / period
	if !((windows+3)*float64(churnN*2)*float64(len(f.keys)+1024)*eventBudgetPerMovedKey <= maxChurnBudget) {
		return 0, false
	}
	return (int(windows) + 2) * churnN * 2, true
}

// scheduleChurn arms the rolling failures. The schedule mirrors each churn
// server's own crash windows (the same golden-ratio stagger the per-server
// plans use), so ring epochs line up with the request drops CrashedAt
// produces.
func (r *fleetRun) scheduleChurn() {
	f, sim, plan := r.f, r.sim, r.plan
	churnN := min(maxChurnServers, f.Ring.Servers()-1)
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
		ClientRejects:  c.clientRejects,
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
	if count > 0 && f.probe != nil {
		f.probe.ReadRepair(count, f.Sim.Now())
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
