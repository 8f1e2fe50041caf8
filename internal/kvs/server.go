package kvs

import (
	"fmt"

	"simdhtbench/internal/arch"
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

	// OverloadProbe, when non-nil, observes admission rejections and
	// queue-deadline sheds; registered only for plans with overload
	// controls armed (fault.Plan.OverloadArmed), like FaultProbe.
	OverloadProbe obs.OverloadProbe
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

// Set stores (key, value) and indexes it; used by the load phase and by a
// Memcached "set" command. When the store is capacity-bounded
// (ItemStore.MaxBytes), least-recently-used items are evicted — from both
// the store and the index — to make room, as Memcached does. Returns the
// item reference.
func (s *Server) Set(key, value []byte) (uint32, error) {
	h := Hash32(key)
	for s.Store.NeedsEviction(len(key), len(value)) {
		victim := s.Store.LRUTail()
		if victim == NoRef {
			break
		}
		it := s.Store.Get(victim)
		s.Index.Delete(s.Store, Hash32(it.Key), it.Key)
		if err := s.Store.Delete(victim); err != nil {
			return NoRef, err
		}
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

// Get performs a native single-key lookup (uncharged), for functional use
// and tests.
func (s *Server) Get(key []byte) ([]byte, bool) {
	e := s.engines[0]
	e.SetCharging(false)
	defer e.SetCharging(true)
	keys := [][]byte{key}
	hashes := []uint32{Hash32(key)}
	refs := []uint32{NoRef}
	s.Index.LookupBatch(e, s.Store, keys, hashes, refs)
	if refs[0] == NoRef {
		return nil, false
	}
	return s.Store.Get(refs[0]).Value, true
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
			if s.OverloadProbe != nil {
				s.OverloadProbe.DeadlineShed(s.Sim.Now()-arrived, s.Sim.Now())
			}
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
			if s.OverloadProbe != nil {
				s.OverloadProbe.QueueFullShed(s.Sim.Now())
			}
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
		e.ChargeCycles(respFixedCycles + respCyclesPerByte*float64(len(it.Value)))
		values[i] = it.Value
		respBytes += len(it.Value) + 16
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
func (s *Server) WarmCaches() {
	hotBudget := (s.Arch.LastLevelCacheSize() * 3) / 4
	for _, e := range s.engines {
		s.Index.Warm(e)
		s.Store.WarmHot(e, hotBudget)
	}
}

// ApplyPressure transiently spikes the index's load factor: it inserts n
// ephemeral items and removes them again, forcing eviction/kick chains at
// high occupancy — the insert-pressure fault of a fault.Plan. Inserts that
// fail (table full, hash collision) are counted, not fatal: a saturated
// table refusing a set is exactly the condition being injected. Returns
// the inserted and failed counts.
func (s *Server) ApplyPressure(n int) (inserted, failed int) {
	type ephemeral struct {
		key []byte
		ref uint32
	}
	eph := make([]ephemeral, 0, n)
	value := []byte("fault-pressure")
	for i := 0; i < n; i++ {
		s.pressureSeq++
		key := []byte(fmt.Sprintf("~fault/pressure-%016x", s.pressureSeq))
		ref, err := s.Set(key, value)
		if err != nil {
			failed++
			continue
		}
		inserted++
		eph = append(eph, ephemeral{key, ref})
	}
	for _, it := range eph {
		s.Index.Delete(s.Store, Hash32(it.key), it.key)
		if err := s.Store.Delete(it.ref); err != nil {
			panic(fmt.Sprintf("kvs: pressure cleanup: %v", err))
		}
	}
	s.PressureInserted += uint64(inserted)
	s.PressureFailed += uint64(failed)
	return inserted, failed
}
