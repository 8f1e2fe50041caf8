package obs

import (
	"fmt"

	"simdhtbench/internal/obs/prof"
)

// Probe interfaces implemented here and consumed by the instrumented
// packages (engine, cache, netsim, kvs, memslap). The interfaces are declared
// in this package so the simulation packages depend only on obs, never the
// other way around. Every constructor on *Collector is nil-safe: a nil
// collector yields a nil interface, which instrumented code treats as
// "off" with a single `!= nil` check.
//
// A probe records what only it can see: spans, trace instants, histograms
// and profiler frames, plus counters the model keeps no count of. A count
// the model already keeps (the engine's per-class op counts and op, memory
// and fixed cycles, des.Sim's events and clock, netsim's per-partition
// traffic and message faults, kvs.Server's batch, key and fault counters,
// the memslap.FleetResults fleet, failover and overload fields) is not
// counted here a second time: the harness that runs the model publishes it
// into its series once, at end of run.

// EngineProbe observes gathers and width licensing inside internal/engine.
type EngineProbe interface {
	// GatherCharged fires once per gather: active lanes and the number
	// of distinct cache lines they touched.
	GatherCharged(lanes, distinctLines int)
	// WidthLicensed fires when a wider vector width is first used,
	// raising the license-based frequency selection. atCycles is the
	// engine's cycle counter at that moment.
	WidthLicensed(width int, atCycles float64)
}

// CacheProbe observes per-level traffic inside internal/cache.
type CacheProbe interface {
	// LevelAccess fires on each level probed during a charged access;
	// level is the configured name (L1D, L2, ...) or "DRAM".
	LevelAccess(level string, hit bool)
	// Eviction fires when installing a line evicts an LRU victim.
	Eviction(level string)
}

// NetProbe observes message traffic in internal/netsim.
type NetProbe interface {
	// MessageSent fires once per logical send: endpoints, payload size,
	// how many segments it was split into, and virtual send/arrival
	// times in seconds.
	MessageSent(from, to string, bytes, segments int, sendAt, arriveAt float64)
}

// ServerProbe observes request processing in internal/kvs.
type ServerProbe interface {
	// Batch fires once per processed MGET batch with the phase
	// breakdown in seconds: start is the virtual completion time of the
	// batch, pre/lookup/post the per-phase durations.
	Batch(worker int, start, pre, lookup, post float64, keys, found int)
}

// FaultProbe observes fault injection: the internal/fault plans consulted
// by netsim and kvs. Like every probe it is nil-means-free: instrumented
// code holds a nil-checkable interface field.
type FaultProbe interface {
	// MessageDropped fires when the fault plan drops a logical message.
	MessageDropped(from, to string, bytes int, at float64)
	// MessageDuplicated fires when a message is delivered twice.
	MessageDuplicated(from, to string, bytes int, at float64)
	// MessageDelayed fires when a delay spike adds extra seconds to a
	// message's delivery.
	MessageDelayed(from, to string, bytes int, extra, at float64)
	// CrashDropped fires when a server inside a crash window drops a
	// request.
	CrashDropped(at float64)
	// SlowdownApplied fires when a slow window stretches a batch's
	// service time by factor.
	SlowdownApplied(factor, at float64)
	// PressureApplied fires after a transient insert-pressure burst:
	// items inserted and insert attempts that failed (table full / hash
	// collision), at virtual seconds at.
	PressureApplied(inserted, failed int, at float64)
}

// ClientProbe observes the client-side degradation protocol in
// internal/memslap: retries, timeouts and degraded Multi-Gets.
type ClientProbe interface {
	// RetryScheduled fires when the client schedules retry `attempt`
	// after a backoff of `backoff` seconds.
	RetryScheduled(attempt int, backoff, at float64)
	// TimeoutFired fires when a request attempt times out.
	TimeoutFired(attempt int, at float64)
	// BatchDegraded fires when a Multi-Get exhausts its retries and
	// degrades: served/missing are the key counts returned/abandoned.
	BatchDegraded(served, missing int, at float64)
}

// FleetProbe observes fleet-scale replication in internal/memslap: ring
// membership epochs and the rebalance storms they trigger, per-rank replica
// reads with failover, read-repair, and quorum writes.
type FleetProbe interface {
	// EpochAdvanced fires when the ring moves to a new epoch: the
	// membership change (join or leave of server), how many key transfers
	// the resulting rebalance enqueued, and how many keys lost their last
	// live replica (unrecoverable until read-repair or rewrite). Both are
	// the coordinator's plan; a transfer that finds its key gone on the
	// donor moves it from moved to lost only in memslap.FleetResults.
	EpochAdvanced(epoch, server int, join bool, moved, lost int, at float64)
	// RebalanceDone fires when the last transfer of an epoch's rebalance
	// is applied (start is the epoch-advance time, end now).
	RebalanceDone(epoch, moved int, start, end float64)
	// ReplicaRead fires once per sub-batch read served, with the replica
	// rank it landed on (0 = primary).
	ReplicaRead(rank int)
	// Failover fires when a timed-out sub-batch rotates to the next
	// replica rank.
	Failover(rank int, at float64)
	// ReadRepair fires when a divergent read triggers repair writes for
	// `keys` keys.
	ReadRepair(keys int, at float64)
	// QuorumWrite fires when a replicated write reaches its ack quorum.
	QuorumWrite(acks int, at float64)
}

// secondsToUs converts DES virtual seconds to trace microseconds.
const secondsToUs = 1e6

// gatherLineBounds buckets the distinct-cache-line count of a gather; a
// W-lane gather touches between 1 and W lines (paper §4: line locality is
// what makes vertical vectorization pay).
var gatherLineBounds = []float64{1, 2, 4, 8, 16}

// batchUsBounds buckets KVS batch service time in microseconds.
var batchUsBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

type engineProbe struct {
	c       *Collector
	gathers *Counter
	lines   *Histogram
	width   *Gauge
}

// EngineProbe returns a probe recording gathers and width licenses into
// this scope, or nil when the collector is nil. The engine's op counts and
// op, memory and fixed cycles are its own fields, which the performance
// engine publishes after the measured window.
func (c *Collector) EngineProbe() EngineProbe {
	if c == nil {
		return nil
	}
	return &engineProbe{
		c:       c,
		gathers: c.Counter("engine_gathers_total"),
		lines:   c.Histogram("engine_gather_distinct_lines", gatherLineBounds),
		width:   c.Gauge("engine_license_width_bits"),
	}
}

func (p *engineProbe) GatherCharged(lanes, distinctLines int) {
	p.gathers.Inc()
	p.lines.Observe(float64(distinctLines))
	_ = lanes
}

func (p *engineProbe) WidthLicensed(width int, atCycles float64) {
	p.width.Max(float64(width))
	p.c.Instant("license", atCycles, map[string]interface{}{"width": width})
}

type cacheProbe struct {
	c         *Collector
	accesses  map[string]*Counter // key "level/hit" or "level/miss"
	evictions map[string]*Counter
}

// CacheProbe returns a probe recording per-level cache traffic into this
// scope, or nil when the collector is nil.
func (c *Collector) CacheProbe() CacheProbe {
	if c == nil {
		return nil
	}
	return &cacheProbe{
		c:         c,
		accesses:  make(map[string]*Counter),
		evictions: make(map[string]*Counter),
	}
}

func (p *cacheProbe) LevelAccess(level string, hit bool) {
	result := "miss"
	if hit {
		result = "hit"
	}
	key := level + "/" + result
	cnt, ok := p.accesses[key]
	if !ok {
		cnt = p.c.Counter("cache_accesses_total",
			Label{Key: "level", Value: level}, Label{Key: "result", Value: result})
		p.accesses[key] = cnt
	}
	cnt.Inc()
}

func (p *cacheProbe) Eviction(level string) {
	cnt, ok := p.evictions[level]
	if !ok {
		cnt = p.c.Counter("cache_evictions_total", Label{Key: "level", Value: level})
		p.evictions[level] = cnt
	}
	cnt.Inc()
}

type netProbe struct {
	c        *Collector
	messages *Counter

	// Cycle-account attribution (nil when profiling is off): virtual wire
	// time per hop, in microseconds, under net/<from->to>. The metric and
	// trace emissions above are unchanged by profiling, so trace/metrics
	// goldens stay byte-identical whether or not a profiler is attached.
	prof *prof.Profiler
	hNet prof.Handle
	hops map[string]prof.Handle
}

// NetProbe returns a probe recording fabric traffic into this scope, or
// nil when the collector is nil. It counts logical messages, which the
// fabric does not; their segments and bytes are the fabric's own counts
// (netsim.Fabric.PartitionCounts), published at end of run.
func (c *Collector) NetProbe() NetProbe {
	if c == nil {
		return nil
	}
	p := &netProbe{
		c:        c,
		messages: c.Counter("net_messages_total"),
	}
	if pr := c.Profiler("us"); pr != nil {
		p.prof = pr
		p.hNet = pr.Child(prof.Root, "net")
		p.hops = make(map[string]prof.Handle)
	}
	return p
}

func (p *netProbe) MessageSent(from, to string, bytes, segments int, sendAt, arriveAt float64) {
	p.messages.Inc()
	name := from + "->" + to
	args := map[string]interface{}{"bytes": bytes, "segments": segments}
	p.c.Tracer.Instant(p.c.trackName("net"), "send "+name, sendAt*secondsToUs, args)
	p.c.Tracer.Instant(p.c.trackName("net"), "recv "+name, arriveAt*secondsToUs, args)
	if p.prof != nil {
		h, ok := p.hops[name]
		if !ok {
			h = p.prof.Child(p.hNet, name)
			p.hops[name] = h
		}
		v := (arriveAt - sendAt) * secondsToUs
		p.prof.AddSelf(h, v)
		p.prof.AddTotal(v)
	}
}

type serverProbe struct {
	c  *Collector
	us *Histogram

	// Cycle-account attribution (nil when profiling is off): per-phase
	// service microseconds under server/{pre,lookup,post} — the Fig. 11b
	// breakdown as an account tree. Metric and trace emissions are
	// unchanged by profiling.
	prof    *prof.Profiler
	hPre    prof.Handle
	hLookup prof.Handle
	hPost   prof.Handle
}

// ServerProbe returns a probe recording KVS request processing into this
// scope, or nil when the collector is nil. Each batch becomes an "mget"
// span on a per-worker track with pre/lookup/post child spans, so the
// Fig. 11b phase breakdown is visible directly in Perfetto, and its
// service time lands in the server_batch_us histogram. The server_*
// batch and key counts are kvs.Server's own fields, published at end of
// run.
func (c *Collector) ServerProbe() ServerProbe {
	if c == nil {
		return nil
	}
	p := &serverProbe{
		c:  c,
		us: c.Histogram("server_batch_us", batchUsBounds),
	}
	if pr := c.Profiler("us"); pr != nil {
		p.prof = pr
		srv := pr.Child(prof.Root, "server")
		p.hPre = pr.Child(srv, "pre")
		p.hLookup = pr.Child(srv, "lookup")
		p.hPost = pr.Child(srv, "post")
	}
	return p
}

func (p *serverProbe) Batch(worker int, start, pre, lookup, post float64, keys, found int) {
	total := pre + lookup + post
	p.us.Observe(total * secondsToUs)
	trackName := p.c.trackName(fmt.Sprintf("worker-%02d", worker))
	ts := start * secondsToUs
	p.c.Tracer.Span(trackName, "mget", ts, total*secondsToUs,
		map[string]interface{}{"keys": keys, "found": found})
	p.c.Tracer.Span(trackName, "pre", ts, pre*secondsToUs, nil)
	p.c.Tracer.Span(trackName, "lookup", ts+pre*secondsToUs, lookup*secondsToUs, nil)
	p.c.Tracer.Span(trackName, "post", ts+(pre+lookup)*secondsToUs, post*secondsToUs, nil)
	if p.prof != nil {
		p.prof.AddSelf(p.hPre, pre*secondsToUs)
		p.prof.AddSelf(p.hLookup, lookup*secondsToUs)
		p.prof.AddSelf(p.hPost, post*secondsToUs)
		p.prof.AddTotal(total * secondsToUs)
	}
}

// faultInstant marks an instant at virtual seconds at on c's "faults"
// track, so injected faults and the client's reactions line up with the
// mget spans in Perfetto.
func faultInstant(c *Collector, name string, at float64, args map[string]interface{}) {
	c.Tracer.Instant(c.trackName("faults"), name, at*secondsToUs, args)
}

type faultProbe struct{ c *Collector }

// FaultProbe returns a probe marking each injected fault as an instant on
// this scope's "faults" track, or nil when the collector is nil. The
// fault counts are netsim's and kvs.Server's own, published at end of run.
func (c *Collector) FaultProbe() FaultProbe {
	if c == nil {
		return nil
	}
	return &faultProbe{c: c}
}

func (p *faultProbe) MessageDropped(from, to string, bytes int, at float64) {
	faultInstant(p.c, "drop "+from+"->"+to, at, map[string]interface{}{"bytes": bytes})
}

func (p *faultProbe) MessageDuplicated(from, to string, bytes int, at float64) {
	faultInstant(p.c, "dup "+from+"->"+to, at, map[string]interface{}{"bytes": bytes})
}

func (p *faultProbe) MessageDelayed(from, to string, bytes int, extra, at float64) {
	faultInstant(p.c, "delay "+from+"->"+to, at,
		map[string]interface{}{"bytes": bytes, "extra_us": extra * secondsToUs})
}

func (p *faultProbe) CrashDropped(at float64) {
	faultInstant(p.c, "crash-drop", at, nil)
}

func (p *faultProbe) SlowdownApplied(factor, at float64) {
	faultInstant(p.c, "slowdown", at, map[string]interface{}{"factor": factor})
}

func (p *faultProbe) PressureApplied(inserted, failed int, at float64) {
	faultInstant(p.c, "pressure", at, map[string]interface{}{"inserted": inserted, "failed": failed})
}

type clientProbe struct {
	c                           *Collector
	timeouts, degraded, missing *Counter
}

// ClientProbe returns a probe marking the client's retries, timeouts and
// degraded batches as instants on this scope's "faults" track, or nil when
// the collector is nil. It counts the last two and the missing keys over
// the whole run, warm-up included; memslap.FleetResults counts measured
// requests only, and its Failovers is the retry count, published at end of
// run.
func (c *Collector) ClientProbe() ClientProbe {
	if c == nil {
		return nil
	}
	return &clientProbe{
		c:        c,
		timeouts: c.Counter("client_timeouts_total"),
		degraded: c.Counter("client_degraded_batches_total"),
		missing:  c.Counter("client_keys_missing_total"),
	}
}

func (p *clientProbe) RetryScheduled(attempt int, backoff, at float64) {
	faultInstant(p.c, "retry", at, map[string]interface{}{"attempt": attempt, "backoff_us": backoff * secondsToUs})
}

func (p *clientProbe) TimeoutFired(attempt int, at float64) {
	p.timeouts.Inc()
	faultInstant(p.c, "timeout", at, map[string]interface{}{"attempt": attempt})
}

func (p *clientProbe) BatchDegraded(served, missing int, at float64) {
	p.degraded.Inc()
	p.missing.Add(uint64(missing))
	faultInstant(p.c, "degraded", at, map[string]interface{}{"served": served, "missing": missing})
}

type fleetProbe struct {
	c            *Collector
	rebalances   *Counter
	replicaReads map[int]*Counter
	repairs      *Counter
	repairKeys   *Counter
	quorumWrites *Counter
}

// FleetProbe returns a probe recording fleet replication events into this
// scope, or nil when the collector is nil. Epoch advances become instants
// and completed rebalances become spans on the scope's "rebalance" track,
// so ownership-transfer storms line up with the mget spans and fault
// instants in Perfetto. The epoch, failover and key-transfer counts are
// memslap.FleetResults fields, published at end of run; EpochAdvanced and
// Failover fire only their instants.
func (c *Collector) FleetProbe() FleetProbe {
	if c == nil {
		return nil
	}
	return &fleetProbe{
		c:            c,
		rebalances:   c.Counter("fleet_rebalances_done_total"),
		replicaReads: make(map[int]*Counter),
		repairs:      c.Counter("fleet_read_repairs_total"),
		repairKeys:   c.Counter("fleet_read_repair_keys_total"),
		quorumWrites: c.Counter("fleet_quorum_writes_total"),
	}
}

func (p *fleetProbe) EpochAdvanced(epoch, server int, join bool, moved, lost int, at float64) {
	change := "leave"
	if join {
		change = "join"
	}
	p.c.Tracer.Instant(p.c.trackName("rebalance"),
		fmt.Sprintf("epoch %d: %s server %d", epoch, change, server), at*secondsToUs,
		map[string]interface{}{"moved": moved, "lost": lost})
}

func (p *fleetProbe) RebalanceDone(epoch, moved int, start, end float64) {
	p.rebalances.Inc()
	p.c.Tracer.Span(p.c.trackName("rebalance"), fmt.Sprintf("rebalance epoch %d", epoch),
		start*secondsToUs, (end-start)*secondsToUs,
		map[string]interface{}{"moved": moved})
}

func (p *fleetProbe) ReplicaRead(rank int) {
	cnt, ok := p.replicaReads[rank]
	if !ok {
		cnt = p.c.Counter("fleet_replica_reads_total", Label{Key: "rank", Value: fmt.Sprintf("%d", rank)})
		p.replicaReads[rank] = cnt
	}
	cnt.Inc()
}

func (p *fleetProbe) Failover(rank int, at float64) {
	p.c.Tracer.Instant(p.c.trackName("rebalance"), "failover", at*secondsToUs,
		map[string]interface{}{"rank": rank})
}

func (p *fleetProbe) ReadRepair(keys int, at float64) {
	p.repairs.Inc()
	p.repairKeys.Add(uint64(keys))
	p.c.Tracer.Instant(p.c.trackName("rebalance"), "read-repair", at*secondsToUs,
		map[string]interface{}{"keys": keys})
}

func (p *fleetProbe) QuorumWrite(acks int, at float64) {
	p.quorumWrites.Inc()
}
