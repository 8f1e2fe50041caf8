package memslap

import (
	"fmt"
	"math"
	"math/rand"

	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/netsim"
	"simdhtbench/internal/workload"
)

// A fleet run's request state is typed, not captured: fleetRun holds the
// run, readReq and writeReq one request each, and subBatch one server's
// share of a read. Each binds its DES and fabric callbacks once, when it
// is created, and nothing is recycled: a fabric message or a server queue
// may still reach a finished request (a duplicated request is still served,
// a stale response still counts a replica read), and a server partition
// holds a sub-batch's keys and result callback until it has processed every
// delivery, so only the garbage collector can tell when a request is
// unreachable.

// fleetCounters is everything a fleet counts; RunFleet computes
// FleetResults from it, the latency samples and the servers' own counters.
// The request counters cover measured requests only; the rest cover the
// whole run. Only partition 0 touches it.
type fleetCounters struct {
	keysRequested  uint64 // keys measured reads asked for
	keysReturned   uint64 // keys a server answered for (hit or miss)
	keysFound      uint64 // returned keys that were hits
	keysMissing    uint64 // keys abandoned after the retries or the budget ran out
	retries        uint64
	timeouts       uint64
	degraded       uint64 // requests with a missing key, and failed writes
	writes         uint64
	writesFailed   uint64
	fanout         uint64 // servers touched, summed over measured requests
	phases         kvs.PhaseBreakdown
	phaseResponses uint64

	epochs, keysMoved, keysLost, repairs, failovers uint64
	hedges, hedgeWins, budgetDenied, clientRejects  uint64
}

// client is one client thread: its NIC and its retry budget.
type client struct {
	ep     *netsim.Endpoint
	budget *retryBudget
}

// fleetRun is one RunFleet call: the config, the request streams and the
// measured window. It lives on partition 0 with the clients and the
// coordinator.
type fleetRun struct {
	f    *Fleet
	cfg  FleetConfig
	plan *fault.Plan
	sim  *des.Sim
	rng  *rand.Rand // read-or-write draws
	zipf *workload.Zipf

	warmup, total     int
	issued, completed int
	writeSeq          int
	clients           []client
	stopPressure      []func()

	// Open-loop arrivals: one is pending at a time, at nextArrival.
	arrRng      *rand.Rand
	nextArrival float64
	arriveFn    func()

	// ends is group's scratch: one group end per server.
	ends []int
	// all lists every batch position, the first attempt's input to group.
	all []int

	latencies, queueDelays []float64
	measStart, measEnd     float64
	firstArr, lastArr      float64
	arrCount               int
}

func newFleetRun(f *Fleet, cfg FleetConfig) (*fleetRun, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf, err := workload.NewZipf(len(f.keys), workload.DefaultZipfTheta, rng)
	if err != nil {
		return nil, err
	}
	warmup := cfg.Requests / warmupDivisor
	r := &fleetRun{
		f: f, cfg: cfg, plan: cfg.Faults, sim: f.Sim, rng: rng, zipf: zipf,
		warmup: warmup, total: warmup + cfg.Requests,
		ends: make([]int, len(f.Servers)), all: make([]int, cfg.BatchSize),
	}
	for i := range r.all {
		r.all[i] = i
	}
	f.counts = fleetCounters{}
	return r, nil
}

// armPressure starts each server's pressure bursts. They run on the
// server's own partition with the server's own probe, out of reach of the
// coordinator's progress count. When the last request completes, the
// coordinator posts each pressured server a stop signal through the engine
// rather than the fabric: it ends the experiment, it is not modelled
// traffic, and a fabric fault must not drop it. Unarmed runs schedule and
// post nothing.
func (r *fleetRun) armPressure() {
	for i, srv := range r.f.Servers {
		stopped := false
		if schedulePressure(srv, func() bool { return stopped }) {
			part := i + 1
			r.stopPressure = append(r.stopPressure, func() {
				r.f.pd.Post(0, part, r.sim.Now()+r.f.pd.Lookahead(), func() { stopped = true })
			})
		}
	}
}

// start creates the clients. Closed-loop clients each issue their first
// request at once; open-loop arrivals start with the first inter-arrival
// gap.
func (r *fleetRun) start() {
	r.clients = make([]client, r.cfg.Clients)
	for c := range r.clients {
		// Each client thread owns its retry budget, as each would in a
		// real client process.
		r.clients[c] = client{
			ep:     r.f.Fabric.Endpoint(fmt.Sprintf("client-%d", c)),
			budget: newRetryBudget(r.plan.RetryBudget()),
		}
		if r.closedLoop() {
			r.issueClosed(&r.clients[c])
		}
	}
	if !r.closedLoop() {
		r.arrRng = rand.New(rand.NewSource(r.cfg.Seed + arrivalSeedOffset))
		r.arriveFn = r.arrive
		r.nextArrival = r.interArrival()
		r.sim.At(r.nextArrival, r.arriveFn)
	}
}

// closedLoop reports whether each client issues its next request when its
// last one finishes, rather than on the arrival process's schedule.
func (r *fleetRun) closedLoop() bool { return r.cfg.ArrivalRate == 0 }

func (r *fleetRun) interArrival() float64 {
	return r.arrRng.ExpFloat64() / r.cfg.ArrivalRate
}

// arrive issues the open-loop request due now, round-robin over the
// clients, and schedules the next arrival.
func (r *fleetRun) arrive() {
	if r.issued >= r.total {
		return
	}
	r.issued++
	seq, at := r.issued, r.nextArrival
	if seq == r.warmup+1 {
		r.firstArr = at
	}
	if seq > r.warmup {
		r.lastArr = at
		r.arrCount++
	}
	r.issue(&r.clients[(seq-1)%len(r.clients)], seq)
	r.nextArrival = at + r.interArrival()
	r.sim.At(r.nextArrival, r.arriveFn)
}

// issueClosed issues a closed-loop client's next request, if any remain.
func (r *fleetRun) issueClosed(cl *client) {
	if r.issued >= r.total {
		return
	}
	r.issued++
	r.issue(cl, r.issued)
}

// issue starts request seq as a quorum write with probability
// WriteFraction, else as a read. A zero fraction draws nothing.
func (r *fleetRun) issue(cl *client, seq int) {
	if r.cfg.WriteFraction > 0 && r.rng.Float64() < r.cfg.WriteFraction {
		r.startWrite(cl, seq)
	} else {
		r.startRead(cl, seq)
	}
}

// complete counts a finished request; the last one stops the pressure
// bursts.
func (r *fleetRun) complete() {
	r.completed++
	if r.completed == r.total {
		for _, stop := range r.stopPressure {
			stop()
		}
	}
}

// measured records a finished request's latency when seq is past the
// warm-up, opens the measured window at the last warm-up request, and
// reports whether seq is measured.
func (r *fleetRun) measured(seq int, sent float64) bool {
	now := r.sim.Now()
	if seq > r.warmup {
		r.latencies = append(r.latencies, now-sent)
		r.measEnd = now
		return true
	}
	if seq == r.warmup {
		// Server stats are not reset here: the coordinator may not touch
		// them, and the shed/high-water counters FleetResults reads
		// accumulate over the whole run.
		r.measStart = now
	}
	return false
}

// readReq is one replicated Multi-Get. Its keys go to each key's primary
// replica first, one sub-batch per owning server. A sub-batch that times
// out or is shed rotates its unresolved keys to their next replica rank
// (failover), bounded by the plan's retries and the client's retry budget,
// and one slow to answer is hedged to the next rank. Each key resolves
// once, so duplicate, stale and losing responses resolve nothing.
type readReq struct {
	r    *fleetRun
	cl   *client
	seq  int
	sent float64

	batch     []int  // key index per batch position
	resolved  []bool // per batch position
	remaining int

	found, returned, missing int
	retries, timeouts        int
	fanout                   int     // servers the first attempt went to
	serviceMax               float64 // slowest sub-batch service time seen
}

func (r *fleetRun) startRead(cl *client, seq int) {
	n := r.cfg.BatchSize
	q := &readReq{r: r, cl: cl, seq: seq, sent: r.sim.Now(),
		batch: make([]int, n), resolved: make([]bool, n), remaining: n}
	for i := range q.batch {
		q.batch[i] = r.zipf.Next()
	}
	q.fanout = q.send(r.all, 0, 0, false)
}

// group lays out the unresolved positions of pos in one slab, grouped by
// the server holding their key's rank-th replica under the current ring:
// servers in id order, and pos order within a group. keys holds their
// keys in the same order. A counting pass sizes every group first, so each
// slab is allocated once. ends[s] is where server s's group ends (it
// starts where server s-1's ends); ends is the run's scratch, valid until
// the next call.
func (q *readReq) group(pos []int, rank int) (slab []int, keys [][]byte, ends []int, groups int) {
	f := q.r.f
	ends = q.r.ends
	clear(ends)
	n := 0
	for _, p := range pos {
		if !q.resolved[p] {
			ends[q.owner(p, rank)]++
			n++
		}
	}
	at := 0
	for s, c := range ends {
		ends[s] = at
		at += c
		if c > 0 {
			groups++
		}
	}
	slab, keys = make([]int, n), make([][]byte, n)
	for _, p := range pos {
		if !q.resolved[p] {
			s := q.owner(p, rank)
			slab[ends[s]], keys[ends[s]] = p, f.keys[q.batch[p]]
			ends[s]++
		}
	}
	return slab, keys, ends, groups
}

// owner is the server holding position p's key at replica rank rank (mod
// the replica set's size) under the current ring.
func (q *readReq) owner(p, rank int) int {
	owners := q.r.f.owners(q.batch[p])
	return owners[rank%len(owners)]
}

// send issues one sub-batch per server owning an unresolved position of
// pos at replica rank rank, in server order (so every fault-RNG draw is
// deterministic), and returns how many it issued. The regrouping uses the
// current ring, so failover also routes around membership changes.
func (q *readReq) send(pos []int, rank, attempt int, hedged bool) int {
	slab, keys, ends, groups := q.group(pos, rank)
	if groups == 0 {
		return 0
	}
	subs := make([]subBatch, 0, groups)
	from := 0
	for s, to := range ends {
		if to == from {
			continue
		}
		subs = append(subs, subBatch{q: q, target: s, rank: rank, attempt: attempt, hedged: hedged,
			pos: slab[from:to:to], keys: keys[from:to:to]})
		subs[len(subs)-1].issue()
		from = to
	}
	return groups
}

func (q *readReq) anyLive(pos []int) bool {
	for _, p := range pos {
		if !q.resolved[p] {
			return true
		}
	}
	return false
}

// abandon gives up on pos's unresolved keys: they count as missing.
func (q *readReq) abandon(pos []int) {
	progressed := false
	for _, p := range pos {
		if q.resolved[p] {
			continue
		}
		q.resolved[p] = true
		q.remaining--
		q.missing++
		progressed = true
	}
	if progressed && q.remaining == 0 {
		q.finish()
	}
}

// resolve takes a served response for sb: every key of sb still open
// resolves, and a NOT_FOUND for a key the fleet stored schedules its
// read-repair. A duplicate or post-abandon (stale) response resolves
// nothing and must not re-enter finish, but still counts a replica read.
func (q *readReq) resolve(sb *subBatch, res kvs.MGetResult) {
	r, f := q.r, q.r.f
	var repair []int
	progressed := false
	for j, p := range sb.pos {
		if q.resolved[p] {
			continue
		}
		q.resolved[p] = true
		q.remaining--
		q.returned++
		progressed = true
		if res.Values[j] != nil {
			q.found++
		} else {
			// Every key drawn is loaded, so a miss is divergence.
			repair = append(repair, p)
		}
	}
	if t := res.Breakdown.Total(); t > q.serviceMax {
		q.serviceMax = t
	}
	if progressed && q.seq > r.warmup {
		c := &f.counts
		c.phases.Pre += res.Breakdown.Pre
		c.phases.Lookup += res.Breakdown.Lookup
		c.phases.Post += res.Breakdown.Post
		c.phaseResponses++
	}
	if f.probe != nil {
		f.probe.ReplicaRead(sb.rank)
	}
	if len(repair) > 0 {
		f.scheduleRepairs(sb.target, q.batch, repair)
	}
	if progressed && q.remaining == 0 {
		q.finish()
	}
}

func (q *readReq) finish() {
	r := q.r
	r.complete()
	if q.missing > 0 && r.cfg.ClientProbe != nil {
		r.cfg.ClientProbe.BatchDegraded(q.returned, q.missing, r.sim.Now())
	}
	if r.measured(q.seq, q.sent) {
		r.queueDelays = append(r.queueDelays, math.Max(0, r.sim.Now()-q.sent-q.serviceMax))
		c := &r.f.counts
		c.keysRequested += uint64(len(q.batch))
		c.keysReturned += uint64(q.returned)
		c.keysFound += uint64(q.found)
		c.retries += uint64(q.retries)
		c.timeouts += uint64(q.timeouts)
		if q.missing > 0 {
			c.degraded++
			c.keysMissing += uint64(q.missing)
		}
		c.fanout += uint64(q.fanout)
	}
	if r.closedLoop() {
		r.issueClosed(q.cl)
	}
}

// subBatch is one attempt to read some of a request's keys from one
// server, or a hedge of such an attempt. pos and keys are read on the
// server's partition until it has served every delivery, so they never
// change after issue.
type subBatch struct {
	q       *readReq
	target  int // server id
	rank    int // replica rank of target for these keys
	attempt int // retries before this one
	hedged  bool
	rotated bool     // its keys moved on to the next rank (or were abandoned)
	pos     []int    // batch positions, in key order
	keys    [][]byte // their keys

	served func(kvs.MGetResult) // onServed, bound once for every delivery
}

// issue sends the sub-batch and arms its hedge and timeout. Hedges carry
// no timeout and never re-hedge: the hedged attempt's own protocol owns
// recovery, so a lost hedge costs one duplicate request and nothing else.
func (sb *subBatch) issue() {
	r := sb.q.r
	f := r.f
	sb.served = sb.onServed
	sb.q.cl.ep.Send(f.serverEPs[sb.target], requestBytes(sb.keys), sb.onArrive)
	if r.plan == nil || sb.hedged {
		return
	}
	if hd := r.plan.HedgeDelay(); hd > 0 && sb.attempt == 0 && f.Replication > 1 {
		// Deterministic hedged read: after the hedge delay, keys still
		// unresolved get one duplicate read at the next replica rank. First
		// response wins through the same per-key resolution failover uses;
		// hedges spend no retry budget and count toward no retry bound.
		// Without a second replica a hedge would re-ask the same server,
		// so R=1 fleets never hedge.
		r.sim.After(hd, sb.onHedge)
	}
	r.sim.After(r.plan.Timeout(), sb.onTimeout)
}

// onArrive runs on the server's partition at each delivery of the request.
func (sb *subBatch) onArrive() {
	sb.q.r.f.Servers[sb.target].HandleMGet(sb.keys, sb.served)
}

// onServed runs on the server's partition when it has answered a delivery.
func (sb *subBatch) onServed(res kvs.MGetResult) {
	resp := &mgetResponse{sb: sb, res: res}
	sb.q.r.f.serverEPs[sb.target].Send(sb.q.cl.ep, res.RespBytes, resp.deliver)
}

// onResponse takes one of the server's answers at the client.
func (sb *subBatch) onResponse(res kvs.MGetResult) {
	q := sb.q
	r := q.r
	if res.Rejected {
		// A shed is an explicit "try elsewhere": fail over now instead of
		// burning the rest of the timeout. Hedge responses never rotate (the
		// attempt they hedge owns recovery), and a sub-batch that already
		// rotated or fully resolved ignores the shed.
		if sb.hedged || sb.rotated || !q.anyLive(sb.pos) {
			return
		}
		r.f.counts.clientRejects++
		sb.rotate()
		return
	}
	if sb.hedged && q.anyLive(sb.pos) {
		// The hedge arrived while keys were still open: it beat the attempt
		// it was hedging.
		r.f.counts.hedgeWins++
	}
	q.resolve(sb, res)
}

func (sb *subBatch) onHedge() {
	q := sb.q
	r := q.r
	if sb.rotated || !q.anyLive(sb.pos) {
		return
	}
	// One firing sends a hedge sub-batch to each next-rank owner; each is
	// a hedged duplicate read and may win on its own.
	n := q.send(sb.pos, sb.rank+1, sb.attempt, true)
	r.f.counts.hedges += uint64(n)
}

func (sb *subBatch) onTimeout() {
	q := sb.q
	if sb.rotated || !q.anyLive(sb.pos) {
		return
	}
	q.timeouts++
	if cp := q.r.cfg.ClientProbe; cp != nil {
		cp.TimeoutFired(sb.attempt, q.r.sim.Now())
	}
	sb.rotate()
}

// rotate moves the sub-batch's open keys to the next replica rank after a
// backoff. The timeout and the shed paths share it; the rotated flag keeps
// whichever fires second from rotating twice. Every rotation must be
// covered by the client's retry budget: an empty bucket abandons instead
// of amplifying the overload that emptied it.
func (sb *subBatch) rotate() {
	sb.rotated = true
	q := sb.q
	r := q.r
	if sb.attempt >= r.plan.MaxRetries() {
		q.abandon(sb.pos)
		return
	}
	if !q.cl.budget.spend() {
		r.f.counts.budgetDenied++
		q.abandon(sb.pos)
		return
	}
	next := sb.attempt + 1
	q.retries++
	r.f.counts.failovers++
	if r.f.probe != nil {
		r.f.probe.Failover(sb.rank+1, r.sim.Now())
	}
	backoff := r.plan.BackoffFor(next)
	if r.cfg.ClientProbe != nil {
		r.cfg.ClientProbe.RetryScheduled(next, backoff, r.sim.Now())
	}
	r.sim.After(backoff, sb.onRetry)
}

func (sb *subBatch) onRetry() {
	sb.q.send(sb.pos, sb.rank+1, sb.attempt+1, false)
}

// mgetResponse is one server answer on its way to the client.
type mgetResponse struct {
	sb  *subBatch
	res kvs.MGetResult
}

func (m *mgetResponse) deliver() { m.sb.onResponse(m.res) }

// writeReq is one quorum write: the value goes to every replica of a
// zipf-drawn key, and the write commits at a majority of acks or, under
// an armed plan, fails when its whole retry window passes first.
type writeReq struct {
	r        *fleetRun
	cl       *client
	seq      int
	sent     float64
	item     [1]kvs.ReplicaItem // what every replica applies, read on its partition
	replicas []replicaWrite     // the key's replica set when the write was issued
	quorum   int
	acks     int
	finished bool
}

// replicaWrite is a quorum write's exchange with one replica.
type replicaWrite struct {
	w      *writeReq
	server int
	acked  bool

	applied func(int) // onApplied, bound once for every delivery
	ack     func()    // onAck, bound once for every apply
}

func (r *fleetRun) startWrite(cl *client, seq int) {
	f := r.f
	r.writeSeq++
	k := r.zipf.Next()
	key := f.keys[k]
	value := make([]byte, writeValueBytes)
	for i := range value {
		value[i] = byte('A' + (r.writeSeq+i)%26)
	}
	owners := f.owners(k)
	w := &writeReq{r: r, cl: cl, seq: seq, sent: r.sim.Now(),
		replicas: make([]replicaWrite, len(owners)), quorum: len(owners)/2 + 1}
	w.item[0] = kvs.ReplicaItem{Key: key, Value: value}
	bytes := len(key) + len(value) + replicaItemOverheadBytes
	for i, s := range owners {
		rw := &w.replicas[i]
		*rw = replicaWrite{w: w, server: s}
		rw.applied, rw.ack = rw.onApplied, rw.onAck
		cl.ep.Send(f.serverEPs[s], bytes, rw.onArrive)
	}
	if r.plan != nil {
		r.sim.After(r.plan.Timeout()*float64(r.plan.MaxRetries()+1), w.onTimeout)
	}
}

// onArrive runs on the replica's partition at each delivery of the write.
func (rw *replicaWrite) onArrive() {
	rw.w.r.f.Servers[rw.server].HandleReplicate(rw.w.item[:], rw.applied)
}

// onApplied runs on the replica's partition once it has applied a delivery.
func (rw *replicaWrite) onApplied(int) {
	rw.w.r.f.serverEPs[rw.server].Send(rw.w.cl.ep, replicaAckBytes, rw.ack)
}

func (rw *replicaWrite) onAck() {
	if rw.acked {
		return // duplicate delivery
	}
	rw.acked = true
	w := rw.w
	w.acks++
	if !w.finished && w.acks >= w.quorum {
		w.finish(true)
	}
}

func (w *writeReq) onTimeout() {
	if w.finished {
		return
	}
	if cp := w.r.cfg.ClientProbe; cp != nil {
		cp.TimeoutFired(0, w.r.sim.Now())
	}
	w.finish(false)
}

func (w *writeReq) finish(ok bool) {
	r := w.r
	w.finished = true
	r.complete()
	if ok && r.f.probe != nil {
		r.f.probe.QuorumWrite(w.acks, r.sim.Now())
	}
	if r.measured(w.seq, w.sent) {
		c := &r.f.counts
		c.fanout += uint64(len(w.replicas))
		if ok {
			c.writes++
		} else {
			c.writesFailed++
			c.degraded++
			c.timeouts++
		}
	}
	if r.closedLoop() {
		r.issueClosed(w.cl)
	}
}
