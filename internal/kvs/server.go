package kvs

import (
	"fmt"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/cache"
	"simdhtbench/internal/des"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/obs"
)

// Per-key pipeline cost constants (cycles), modeling the server data-access
// phase of Section VI-A. Parsing and response assembly scale with byte
// counts; the fixed parts cover dispatch, bounds checks and metadata.
const (
	parseFixedCycles   = 25.0 // request demarshalling / dispatch per key
	parseCyclesPerByte = 1.0  // token scan over key bytes
	hashCyclesPerByte  = 1.0  // full-key hash
	hashFixedCycles    = 15.0
	lruUpdateCycles    = 60.0 // LRU unlink/relink + lock handling
	respFixedCycles    = 70.0 // per-key response header + iovec setup
	respCyclesPerByte  = 0.5  // value copy into the send buffer
	notFoundRespCycles = 30.0
)

// PhaseBreakdown is the per-batch server time split of Fig. 11b: the
// pre-processing, hash-table-lookup and post-processing sub-phases of the
// server data access phase, in seconds.
type PhaseBreakdown struct {
	Pre    float64
	Lookup float64
	Post   float64
}

// Total returns the summed phase time.
func (p PhaseBreakdown) Total() float64 { return p.Pre + p.Lookup + p.Post }

// MGetResult is what HandleMGet delivers when a batch finishes.
type MGetResult struct {
	Values    [][]byte // per requested key; nil = NOT_FOUND
	Found     int
	RespBytes int
	Breakdown PhaseBreakdown

	// Rejected marks an overload shed: the server refused the batch
	// (admission queue full, or queue deadline exceeded at grant) and sent
	// a cheap error frame instead of values. Unlike a crash-window drop the
	// client hears back immediately, so it can fail over to another replica
	// without waiting out its timeout.
	Rejected bool
}

// rejectRespBytes is the wire size of the shed-error frame: a response
// header with a status code and no values.
const rejectRespBytes = 16

// Server is the RDMA-Memcached-style server: a pool of worker threads
// processing Multi-Get batches against a shared item store and a pluggable
// hash-table index. Each worker runs on its own simulated core (engine);
// batch service time is the engine-charged cycle count of the three
// pipeline phases converted at the index's license frequency.
type Server struct {
	Sim     *des.Sim
	Arch    *arch.Model
	Workers *des.Resource
	Index   Index
	Store   *ItemStore

	engines    []*engine.Engine
	freeEng    []int
	refScratch [][]uint32
	hashScr    [][]uint32
	maxBatch   int

	// Accumulated stats.
	Batches     uint64
	KeysServed  uint64
	KeysFound   uint64
	Evictions   uint64
	PhaseTotals PhaseBreakdown

	// Replica-apply stats (HandleReplicate), accumulated across the whole
	// run like the fault counters, since rebalance spans warm-up and
	// measurement alike.
	ReplicaBatches uint64
	ReplicaItems   uint64

	// Fault-injection stats.
	CrashDrops       uint64 // requests dropped inside crash windows
	Slowdowns        uint64 // batches stretched by a slow window
	PressureInserted uint64 // transient pressure items inserted
	PressureFailed   uint64 // pressure inserts that failed (full/collision)
	pressureSeq      uint64 // deterministic ephemeral-key counter

	// Overload-control stats (admission control + queue-deadline shedding;
	// armed by the fault plan's qdepth=/qdeadline= keys). Accumulated across
	// the whole run like the fault counters.
	ShedQueueFull uint64 // batches rejected at admission (queue at qdepth)
	ShedDeadline  uint64 // queued batches dropped at grant (waited > qdeadline)

	// Probe, when non-nil, observes each processed batch with its phase
	// breakdown (obs layer): one request span per batch on a per-worker
	// track with pre/lookup/post children — Fig. 11b, but per request.
	Probe obs.ServerProbe

	// Faults, when non-nil, injects crash windows (requests silently
	// dropped, as a dead server would), slow windows (service time
	// stretched) and transient insert pressure. FaultProbe, when
	// additionally non-nil, observes each injected fault.
	Faults     *fault.Plan
	FaultProbe obs.FaultProbe
}

// NewServer builds a server with `workers` worker threads on the given
// architecture. maxBatch caps the Multi-Get size.
func NewServer(sim *des.Sim, model *arch.Model, workers, maxBatch int, index Index, store *ItemStore) *Server {
	if maxBatch < 1 {
		maxBatch = 1
	}
	s := &Server{
		Sim:      sim,
		Arch:     model,
		Workers:  des.NewResource(sim, workers),
		Index:    index,
		Store:    store,
		maxBatch: maxBatch,
	}
	for i := 0; i < workers; i++ {
		s.engines = append(s.engines, engine.New(model, workers))
		s.freeEng = append(s.freeEng, i)
		s.refScratch = append(s.refScratch, make([]uint32, maxBatch))
		s.hashScr = append(s.hashScr, make([]uint32, maxBatch))
	}
	return s
}

// Set stores (key, value) and indexes it: Memcached's "set" command, which
// replaces a stored version of the key. Replica applies (HandleReplicate)
// and the fault plan's pressure items write through it; a load uses Load.
// An object larger than the largest slab class is rejected before anything
// changes. Otherwise Set removes a stored version (found by the functional
// Index.Find; its index entry, then its item) and stores the new one,
// evicting least-recently-used items first when the store is
// capacity-bounded (ItemStore.MaxBytes), as Memcached does. Set charges no
// cycles and touches no simulated cache. It returns the new item's
// reference and whether a stored version was replaced, which stays removed
// if storing the new one fails.
func (s *Server) Set(key, value []byte) (ref uint32, replaced bool, err error) {
	if _, err := s.Store.sizeClass(len(key), len(value)); err != nil {
		return NoRef, false, err
	}
	h := Hash32(key)
	if old := s.Index.Find(s.Store, h, key); old != NoRef {
		s.remove(old)
		replaced = true
	}
	ref, err = s.set(key, value, h)
	return ref, replaced, err
}

// Load stores a load's share of n items on the server, in order: item(j)
// returns the j-th item's key, its value and the key's Hash32, which Load
// takes as given instead of hashing the key again. The keys must be
// distinct and absent from the server (the fleet load stores distinct keys
// on fresh servers), so Load looks nothing up; otherwise it stores as n
// Sets would. Before the first item it grows the store's item table once,
// to hold exactly n more items, so a load never regrows it (on a fresh
// server the table ends with capacity n). It stops at the first item that
// fails and returns the number of items stored before it with its error.
func (s *Server) Load(n int, item func(j int) (key, value []byte, h uint32)) (int, error) {
	s.Store.reserve(n)
	for j := 0; j < n; j++ {
		key, value, h := item(j)
		if _, err := s.set(key, value, h); err != nil {
			return j, err
		}
	}
	return n, nil
}

// set stores and indexes a key the server does not hold, whose Hash32 the
// caller has already computed, evicting first when the store is
// capacity-bounded. An object larger than the largest slab class needs no
// eviction, so ItemStore.Set rejects it before anything changes.
func (s *Server) set(key, value []byte, h uint32) (uint32, error) {
	for s.Store.NeedsEviction(len(key), len(value)) {
		victim := s.Store.LRUTail()
		if victim == NoRef {
			break
		}
		s.remove(victim)
		s.Evictions++
	}
	ref, err := s.Store.Set(key, value)
	if err != nil {
		return NoRef, err
	}
	if err := s.Index.Insert(h, ref); err != nil {
		s.Store.Delete(ref)
		return NoRef, fmt.Errorf("kvs: indexing %q: %w", key, err)
	}
	return ref, nil
}

// remove deletes the live item ref: its index entry, then the item.
func (s *Server) remove(ref uint32) {
	it := s.Store.Get(ref)
	if it == nil {
		panic(fmt.Sprintf("kvs: remove of item %d, which is not stored", ref))
	}
	k := s.Store.Key(it)
	s.Index.Delete(s.Store, Hash32(k), k)
	s.Store.Delete(ref)
}

// Get looks up one key on a side path: the fleet's rebalance and repair
// reads, and tests. The lookup is functional (Index.Find): it uses no
// worker, charges no cycles and leaves every worker's simulated caches as
// they were. Only Multi-Get batches (HandleMGet) run the charged lookup
// templates. The returned value aliases store memory and must not be
// modified; it keeps its bytes after the item is replaced or deleted.
func (s *Server) Get(key []byte) ([]byte, bool) {
	ref := s.Index.Find(s.Store, Hash32(key), key)
	if ref == NoRef {
		return nil, false
	}
	return s.Store.Value(s.Store.Get(ref)), true
}

// HandleMGet schedules a Multi-Get batch: it waits for a free worker,
// charges the three pipeline phases on that worker's core, and delivers the
// result after the simulated service time.
//
// Under an active fault plan, a request arriving inside a crash window is
// silently dropped — a dead server sends nothing back, and recovering is
// the client protocol's job — and a slow window stretches the batch's
// service time by the plan's factor.
//
// With overload controls armed (qdepth=/qdeadline= in the plan), the batch
// instead passes admission control: a worker queue already at qdepth
// rejects it immediately, and a queued batch that waited longer than
// qdeadline is shed at grant time rather than served uselessly late. Both
// sheds answer with a cheap Rejected result — unlike a crash drop, the
// client hears back at once and can fail over without burning its timeout.
func (s *Server) HandleMGet(keys [][]byte, done func(MGetResult)) {
	if s.Faults.CrashedAt(s.Sim.Now()) {
		s.CrashDrops++
		if s.FaultProbe != nil {
			s.FaultProbe.CrashDropped(s.Sim.Now())
		}
		return
	}
	deadline := s.Faults.QueueDeadline()
	arrived := s.Sim.Now()
	grant := func() {
		if deadline > 0 && s.Sim.Now()-arrived > deadline {
			// Stale at grant: the client has given up (or is about to), so
			// serving this batch would only burn worker time that fresh
			// work needs. Releasing first lets the next waiter be granted
			// — and shed in turn if it is stale too, draining a stale
			// backlog at event speed instead of service speed.
			s.ShedDeadline++
			s.Workers.Release()
			done(MGetResult{Rejected: true, RespBytes: rejectRespBytes})
			return
		}
		wi := s.freeEng[len(s.freeEng)-1]
		s.freeEng = s.freeEng[:len(s.freeEng)-1]
		res := s.processBatch(wi, keys)
		service := res.Breakdown.Total()
		if factor := s.Faults.SlowdownAt(s.Sim.Now()); factor > 1 {
			service *= factor
			s.Slowdowns++
			if s.FaultProbe != nil {
				s.FaultProbe.SlowdownApplied(factor, s.Sim.Now())
			}
		}
		s.Sim.After(service, func() {
			s.freeEng = append(s.freeEng, wi)
			s.Workers.Release()
			done(res)
		})
	}
	if qd := s.Faults.QueueDepth(); qd > 0 {
		s.Workers.SetMaxQueue(qd)
		if err := s.Workers.Offer(grant); err != nil {
			s.ShedQueueFull++
			done(MGetResult{Rejected: true, RespBytes: rejectRespBytes})
		}
		return
	}
	s.Workers.Acquire(grant)
}

// processBatch serves a batch of any size by segmenting it into
// maxBatch-sized chunks (the index scratch capacity), like a real server
// splitting an oversized MGET. Batches within the cap — every batch the
// experiment harness issues — take the single-chunk fast path untouched.
func (s *Server) processBatch(wi int, keys [][]byte) MGetResult {
	if len(keys) <= s.maxBatch {
		return s.processChunk(wi, keys)
	}
	out := MGetResult{Values: make([][]byte, 0, len(keys))}
	for from := 0; from < len(keys); from += s.maxBatch {
		to := min(from+s.maxBatch, len(keys))
		r := s.processChunk(wi, keys[from:to])
		out.Values = append(out.Values, r.Values...)
		out.Found += r.Found
		out.RespBytes += r.RespBytes
		out.Breakdown.Pre += r.Breakdown.Pre
		out.Breakdown.Lookup += r.Breakdown.Lookup
		out.Breakdown.Post += r.Breakdown.Post
	}
	return out
}

// processChunk runs the three phases on worker wi's engine and returns the
// result with per-phase times.
func (s *Server) processChunk(wi int, keys [][]byte) MGetResult {
	e := s.engines[wi]
	freq := s.Arch.Frequency(s.Index.Width()) * 1e9
	hashes := s.hashScr[wi][:len(keys)]
	refs := s.refScratch[wi][:len(keys)]

	// Phase 1: pre-processing — parse each key out of the request and
	// compute its 32-bit hash.
	start := e.Cycles()
	for i, k := range keys {
		e.ChargeCycles(parseFixedCycles + parseCyclesPerByte*float64(len(k)))
		e.ChargeCycles(hashFixedCycles + hashCyclesPerByte*float64(len(k)))
		hashes[i] = Hash32(k)
	}
	preCycles := e.Cycles() - start

	// Phase 2: hash-table lookup (charged probing + full-key verification).
	start = e.Cycles()
	found := s.Index.LookupBatch(e, s.Store, keys, hashes, refs)
	lookupCycles := e.Cycles() - start

	// Phase 3: post-processing — LRU freshness updates and response
	// assembly (value copies for hits, NOT_FOUND markers for misses).
	start = e.Cycles()
	values := make([][]byte, len(keys))
	respBytes := 0
	for i, ref := range refs {
		if ref == NoRef {
			e.ChargeCycles(notFoundRespCycles)
			respBytes += 8
			continue
		}
		it := s.Store.Get(ref)
		e.OverlappedAccess(it.Addr(), itemHeaderBytes)
		e.ChargeCycles(lruUpdateCycles)
		s.Store.TouchLRU(ref)
		v := s.Store.Value(it)
		e.ChargeCycles(respFixedCycles + respCyclesPerByte*float64(len(v)))
		values[i] = v
		respBytes += len(v) + 16
	}
	postCycles := e.Cycles() - start

	b := PhaseBreakdown{
		Pre:    preCycles / freq,
		Lookup: lookupCycles / freq,
		Post:   postCycles / freq,
	}
	s.Batches++
	s.KeysServed += uint64(len(keys))
	s.KeysFound += uint64(found)
	s.PhaseTotals.Pre += b.Pre
	s.PhaseTotals.Lookup += b.Lookup
	s.PhaseTotals.Post += b.Post
	if s.Probe != nil {
		// Batch service occupies [Now, Now+Total] of virtual time on this
		// worker; the probe renders it as a span with phase children.
		s.Probe.Batch(wi, s.Sim.Now(), b.Pre, b.Lookup, b.Post, len(keys), found)
	}

	return MGetResult{Values: values, Found: found, RespBytes: respBytes, Breakdown: b}
}

// WarmCaches installs the index table and the hottest items in every
// worker's simulated caches — the steady state a long-running server
// reaches (the hot set of a skewed key-value workload stays resident; see
// Section V-B's discussion of temporal locality). The remaining warm-up
// happens through the client's discarded warm-up requests.
//
// Every worker's hierarchy is built from the same arch model and warm-up
// only touches the hierarchy (Touch fires no probe or profiler event), so
// when every worker is still pristine the server warms worker 0 once and
// copies its hierarchy into the others, which ends in exactly the state
// warming each would. If any worker has already served a batch, each
// worker is warmed in turn. Side-path lookups (Get, and Set's lookup of a
// stored version) touch no cache, so they never force that fallback.
func (s *Server) WarmCaches() {
	hotBudget := (s.Arch.LastLevelCacheSize() * 3) / 4
	warm := func(h *cache.Hierarchy) {
		s.Index.Warm(h)
		s.Store.WarmHot(h, hotBudget)
	}
	pristine := true
	for _, e := range s.engines {
		pristine = pristine && e.Cache.Pristine()
	}
	first := s.engines[0].Cache
	warm(first)
	for _, e := range s.engines[1:] {
		if pristine {
			e.Cache.CopyFrom(first)
		} else {
			warm(e.Cache)
		}
	}
}

// ApplyPressure transiently spikes the index's load factor: it Sets n
// ephemeral items and removes them again, forcing eviction/kick chains at
// high occupancy — the insert-pressure fault of a fault.Plan. Sets that
// fail (table full, hash collision) are counted, not fatal: a saturated
// table refusing a set is exactly the condition being injected. Returns
// the inserted and failed counts.
func (s *Server) ApplyPressure(n int) (inserted, failed int) {
	refs := make([]uint32, 0, n)
	value := []byte("fault-pressure")
	for i := 0; i < n; i++ {
		s.pressureSeq++
		key := []byte(fmt.Sprintf("~fault/pressure-%016x", s.pressureSeq))
		ref, _, err := s.Set(key, value)
		if err != nil {
			failed++
			continue
		}
		refs = append(refs, ref)
	}
	for _, ref := range refs {
		s.remove(ref)
	}
	inserted = len(refs)
	s.PressureInserted += uint64(inserted)
	s.PressureFailed += uint64(failed)
	return inserted, failed
}
