// Package des is a small discrete-event simulator with a virtual clock.
//
// The key-value-store validation (Section VI) measures end-to-end Multi-Get
// latency across a client node, an InfiniBand-EDR-class fabric, and a
// multi-worker server. Those experiments need queueing behaviour — workers
// busy, NICs serializing, clients in closed loops — under a deterministic
// virtual clock, which is exactly what this package provides: per-partition
// event heaps (Sim) advanced in lookahead windows by one run loop
// (Partitioned), and FIFO resources with capacity (Resource).
//
// All times are float64 seconds of virtual time.
package des

import (
	"errors"
	"fmt"

	"simdhtbench/internal/obs"
)

// ErrQueueFull is the typed rejection returned by Resource.Offer when the
// resource is saturated and its wait queue is at its SetMaxQueue bound.
// It is the admission-control signal: callers turn it into a cheap reject
// response instead of queueing work that would be served too late to matter.
var ErrQueueFull = errors.New("des: resource queue full")

// Sim is one partition's event scheduler: a virtual clock and an event heap.
// Sims are created and run by a Partitioned engine; schedule onto one with
// At and After, and read its clock with Now.
type Sim struct {
	now        float64
	seq        uint64
	events     eventHeap
	dispatched uint64

	// Heartbeat, when non-nil, ticks once per dispatched event — stderr-only
	// liveness output for long runs, never part of deterministic artifacts.
	Heartbeat *obs.Heartbeat
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Dispatched returns how many events this Sim has dispatched.
func (s *Sim) Dispatched() uint64 { return s.dispatched }

// At schedules fn to run at absolute virtual time t (>= Now).
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling into the past (%g < %g)", t, s.now))
	}
	s.events.push(event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn to run delay seconds from now.
func (s *Sim) After(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %g", delay))
	}
	s.At(s.now+delay, fn)
}

// NextEventAt returns the timestamp of the earliest pending event and true,
// or (0, false) when the queue is empty. It is the per-partition input to the
// Partitioned engine's global-horizon computation.
func (s *Sim) NextEventAt() (float64, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// runBefore dispatches every pending event with timestamp strictly below
// limit. The clock stays at the last dispatched event; the Partitioned
// engine enforces its event budget between windows, so every partition
// stops at the same horizon.
func (s *Sim) runBefore(limit float64) {
	for len(s.events) > 0 && s.events[0].at < limit {
		ev := s.events.pop()
		s.now = ev.at
		s.dispatched++
		s.Heartbeat.Tick(ev.at)
		ev.fn()
	}
}

type event struct {
	at  float64
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap of event values ordered by
// (at, seq). Scheduling an event appends into the slice's spare capacity —
// no per-event box, no interface conversion — so the steady-state event loop
// allocates nothing once the heap has reached its high-water mark (pinned by
// the netsim Send alloc test). Because (at, seq) is a unique total order,
// pop order — and therefore every simulation outcome — is identical to the
// previous container/heap formulation.
//
// Invariant (FIFO tie-break): events scheduled with equal timestamps pop in
// insertion order, at any heap size, because seq increases monotonically per
// Sim and (at, seq) ordering is total. The Partitioned engine's canonical
// cross-partition merge depends on this: it inserts merged remote events into
// the destination heap in (timestamp, source partition, source seq) order, so
// the destination's locally assigned seqs reproduce the canonical order
// bitwise, whatever order the sources posted in. Pinned by
// TestEventHeapFIFOTieBreak.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and sifts it up to its heap position.
func (h *eventHeap) push(ev event) {
	//lint:ignore alloclint the heap's backing array grows to the high-water event count and is reused for the rest of the run
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the minimum event, releasing its closure reference
// from the backing array.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the fn reference so the closure can be collected
	q = q[:n]
	*h = q
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

// Resource is a FIFO-queued resource with fixed capacity (e.g. a pool of
// server worker threads). Acquire either grants immediately or queues; the
// holder must call Release exactly once.
type Resource struct {
	sim   *Sim
	cap   int
	inUse int
	queue []waiter

	// OnWait, when non-nil, is called with the queue-wait duration (virtual
	// seconds) each time a queued request is finally granted — the hook the
	// cycle accounting uses to attribute server queueing delay.
	OnWait func(seconds float64)

	// Admission control (SetMaxQueue): Offer rejects once the wait queue
	// holds maxQueue requests. 0 means unbounded — the default, which keeps
	// Acquire-only users (every pre-overload experiment) byte-identical.
	maxQueue int

	// Stats.
	grants   uint64
	rejected uint64
	queueHW  int
	busyTime float64
	lastTick float64
}

// waiter is a queued Acquire plus the virtual time it started waiting.
type waiter struct {
	fn func()
	at float64
}

// NewResource creates a resource with the given capacity on sim.
func NewResource(sim *Sim, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: resource capacity %d", capacity))
	}
	return &Resource{sim: sim, cap: capacity}
}

// Acquire requests a unit; fn runs (via the event queue) once granted.
func (r *Resource) Acquire(fn func()) {
	if r.inUse < r.cap {
		r.accounting()
		r.inUse++
		r.grants++
		r.sim.After(0, fn)
		return
	}
	r.queue = append(r.queue, waiter{fn: fn, at: r.sim.Now()})
	if len(r.queue) > r.queueHW {
		r.queueHW = len(r.queue)
	}
}

// SetMaxQueue bounds the wait queue at n requests for Offer; n <= 0 restores
// the unbounded default. Acquire is never bounded — only Offer rejects — so
// arming a bound cannot change the behaviour of Acquire-only callers.
func (r *Resource) SetMaxQueue(n int) {
	if n < 0 {
		n = 0
	}
	r.maxQueue = n
}

// Offer is Acquire with admission control: if the resource is saturated and
// the wait queue is at its SetMaxQueue bound, it returns ErrQueueFull
// without scheduling anything; otherwise it behaves exactly like Acquire and
// returns nil. With no bound configured Offer never rejects.
func (r *Resource) Offer(fn func()) error {
	if r.maxQueue > 0 && r.inUse >= r.cap && len(r.queue) >= r.maxQueue {
		r.rejected++
		return ErrQueueFull
	}
	r.Acquire(fn)
	return nil
}

// Release returns a unit and grants the longest-waiting request, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("des: Release without Acquire")
	}
	r.accounting()
	r.inUse--
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.inUse++
		r.grants++
		if r.OnWait != nil {
			r.OnWait(r.sim.Now() - next.at)
		}
		r.sim.After(0, next.fn)
	}
}

func (r *Resource) accounting() {
	r.busyTime += float64(r.inUse) * (r.sim.Now() - r.lastTick)
	r.lastTick = r.sim.Now()
}

// Grants returns how many acquisitions have been granted.
func (r *Resource) Grants() uint64 { return r.grants }

// Rejected returns how many Offers were refused with ErrQueueFull.
func (r *Resource) Rejected() uint64 { return r.rejected }

// QueueHighWater returns the maximum wait-queue depth ever observed.
func (r *Resource) QueueHighWater() int { return r.queueHW }

// Utilization returns average busy units divided by capacity since t=0.
func (r *Resource) Utilization() float64 {
	r.accounting()
	if r.sim.Now() == 0 {
		return 0
	}
	return r.busyTime / (r.sim.Now() * float64(r.cap))
}
