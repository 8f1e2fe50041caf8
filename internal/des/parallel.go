package des

import "fmt"

// Partitioned is a conservative parallel discrete-event engine. It advances
// a fixed set of partition Sims in lockstep time windows:
//
//	H       = min over partitions of the earliest pending event
//	horizon = H + lookahead
//
// Every partition may safely execute all of its events with timestamps
// strictly below horizon, concurrently with the others, because the lookahead
// is a lower bound on cross-partition message latency: an event executing at
// t >= H can only schedule into another partition at t + lookahead >= horizon,
// i.e. into a later window. Cross-partition sends are therefore buffered in
// per-source outboxes during the window and merged at the barrier, in
// canonical (timestamp, source partition, source seq) order, into the
// destination heaps — so the executed event order, and every artifact derived
// from it, is byte-identical at any host worker count.
//
// The partition count fixes the decomposition (and thus the result); the
// worker count only maps partitions onto host goroutines. Determinism across
// worker counts holds by construction: workers touch disjoint partitions and
// per-slot output, and the single-threaded barrier merge observes the same
// outbox contents regardless of which goroutine filled them.
//
// Run is the package's one run loop, and its event budget (SetEventBudget)
// the one watchdog: the budget is checked between windows, so every
// partition stops at the same horizon and no partition is stranded
// mid-window. A one-partition engine pops its single heap in exactly the
// order a serial event loop would. Attach an obs.Heartbeat to at most one
// partition (conventionally partition 0) — it writes to stderr and is not
// synchronized across workers.
type Partitioned struct {
	sims      []*Sim
	lookahead float64
	workers   int

	// horizon is the current window's exclusive upper bound. It is written
	// by the driver before workers start (happens-before via the start
	// channels) and read by Post during the window.
	horizon float64

	// outbox[src] buffers cross-partition sends issued by partition src
	// during the current window. Each slot has a single writer (the worker
	// currently advancing partition src), and the barrier gives the driver
	// happens-before on the contents.
	outbox  [][]remote
	scratch []remote

	budget     uint64
	dispatched uint64
	exhausted  bool

	// Persistent window workers (workers > 1): worker w advances partitions
	// p ≡ w (mod workers); the driver doubles as worker 0.
	start  []chan float64
	done   chan int
	counts []uint64
}

// remote is a cross-partition event captured in a source outbox: schedule fn
// on partition dst at absolute time at. The implicit (source partition,
// outbox index) position supplies the canonical tie-break for equal
// timestamps.
type remote struct {
	at  float64
	dst int
	fn  func()
}

// NewPartitioned creates a partitioned engine with parts partition Sims,
// advanced by workers host goroutines, with the given cross-partition
// lookahead in virtual seconds. workers is clamped to [1, parts].
func NewPartitioned(parts, workers int, lookahead float64) *Partitioned {
	if parts < 1 {
		panic(fmt.Sprintf("des: partition count %d", parts))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("des: lookahead %g", lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > parts {
		workers = parts
	}
	pd := &Partitioned{
		sims:      make([]*Sim, parts),
		lookahead: lookahead,
		workers:   workers,
		outbox:    make([][]remote, parts),
		counts:    make([]uint64, parts),
	}
	for i := range pd.sims {
		pd.sims[i] = &Sim{}
	}
	return pd
}

// Sim returns partition i's scheduler.
func (pd *Partitioned) Sim(i int) *Sim { return pd.sims[i] }

// Parts returns the partition count.
func (pd *Partitioned) Parts() int { return len(pd.sims) }

// Lookahead returns the cross-partition lookahead in virtual seconds.
func (pd *Partitioned) Lookahead() float64 { return pd.lookahead }

// SetEventBudget arms the window-granularity watchdog: once n events have
// been dispatched across all partitions, Run stops before opening another
// window. n == 0 disables it.
func (pd *Partitioned) SetEventBudget(n uint64) { pd.budget = n }

// Dispatched returns the events dispatched across all partitions.
func (pd *Partitioned) Dispatched() uint64 { return pd.dispatched }

// BudgetExhausted reports whether the watchdog stopped the run with events
// still pending.
func (pd *Partitioned) BudgetExhausted() bool { return pd.exhausted }

// Post buffers a cross-partition event: partition src, executing the current
// window, schedules fn on partition dst at absolute virtual time at. It must
// only be called from an event running on partition src (single writer per
// outbox slot). at must not land inside the current window — that would be a
// lookahead violation, meaning the caller's latency model undercuts the
// lookahead the engine was constructed with.
//
//lint:hotpath cross-partition send buffering runs once per remote message in the window loop
func (pd *Partitioned) Post(src, dst int, at float64, fn func()) {
	if at < pd.horizon {
		panic(fmt.Sprintf("des: lookahead violation (cross-partition event at %g < horizon %g)", at, pd.horizon))
	}
	//lint:ignore alloclint the outbox grows to its per-window high-water mark and is reused for the rest of the run
	pd.outbox[src] = append(pd.outbox[src], remote{at: at, dst: dst, fn: fn})
}

// Run advances all partitions window by window until every event heap is
// empty or the event budget is exhausted.
func (pd *Partitioned) Run() {
	// Setup code (and a budget-exhausted pause) may Post cross-partition
	// events from outside any window; they sit in the outboxes, invisible to
	// nextHorizon, until merged. Run starts at a window boundary, so flushing
	// them first is safe — and necessary: a program whose only pending work
	// is posted (a closed-loop client's opening requests, say) would
	// otherwise look finished.
	pd.merge()
	if pd.workers > 1 {
		pd.startWorkers()
		defer pd.stopWorkers()
	}
	for {
		h, ok := pd.nextHorizon()
		if !ok {
			return
		}
		if pd.budget > 0 && pd.dispatched >= pd.budget {
			pd.exhausted = true
			return
		}
		pd.horizon = h + pd.lookahead
		pd.runWindow()
		pd.merge()
	}
}

// nextHorizon returns the global minimum pending-event timestamp.
func (pd *Partitioned) nextHorizon() (float64, bool) {
	var h float64
	ok := false
	for _, s := range pd.sims {
		if t, has := s.NextEventAt(); has && (!ok || t < h) {
			h, ok = t, true
		}
	}
	return h, ok
}

// runWindow executes every partition's events strictly below the current
// horizon, striped across the workers, and accumulates the dispatch count.
func (pd *Partitioned) runWindow() {
	if pd.workers == 1 {
		for p := range pd.sims {
			pd.counts[p] = pd.sims[p].runBefore(pd.horizon)
		}
	} else {
		for w := 1; w < pd.workers; w++ {
			pd.start[w] <- pd.horizon
		}
		for p := 0; p < len(pd.sims); p += pd.workers {
			pd.counts[p] = pd.sims[p].runBefore(pd.horizon)
		}
		for w := 1; w < pd.workers; w++ {
			<-pd.done
		}
	}
	for _, c := range pd.counts {
		pd.dispatched += c
	}
}

// startWorkers launches the persistent window workers (once per Run).
func (pd *Partitioned) startWorkers() {
	pd.start = make([]chan float64, pd.workers)
	pd.done = make(chan int, pd.workers)
	for w := 1; w < pd.workers; w++ {
		pd.start[w] = make(chan float64, 1)
		go func(w int) {
			for horizon := range pd.start[w] {
				for p := w; p < len(pd.sims); p += pd.workers {
					pd.counts[p] = pd.sims[p].runBefore(horizon)
				}
				pd.done <- w
			}
		}(w)
	}
}

// stopWorkers shuts the persistent workers down.
func (pd *Partitioned) stopWorkers() {
	for w := 1; w < pd.workers; w++ {
		close(pd.start[w])
	}
	pd.start = nil
	pd.done = nil
}

// merge drains the outboxes into the destination heaps in canonical order.
// Outboxes are concatenated in source-partition order (each already in
// source-seq order, since appends follow the source's execution order) and
// stable-sorted by timestamp alone — preserving the (source partition,
// source seq) concatenation order among equal timestamps — so the
// destination Sim assigns its local seqs in exactly the canonical
// (timestamp, partition, seq) order, at any worker count.
//
//lint:hotpath the barrier merge runs once per time window on the critical path of the parallel engine
func (pd *Partitioned) merge() {
	ms := pd.scratch[:0]
	for src := range pd.outbox {
		//lint:ignore alloclint the merge scratch grows to its per-window high-water mark and is reused for the rest of the run
		ms = append(ms, pd.outbox[src]...)
		ob := pd.outbox[src]
		for i := range ob {
			ob[i].fn = nil // release the closure reference from the outbox
		}
		pd.outbox[src] = ob[:0]
	}
	// Stable insertion sort by timestamp; windows are one lookahead wide, so
	// the cross-partition message count per merge is small.
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i - 1
		for j >= 0 && ms[j].at > m.at {
			ms[j+1] = ms[j]
			j--
		}
		ms[j+1] = m
	}
	for i := range ms {
		pd.sims[ms[i].dst].At(ms[i].at, ms[i].fn)
		ms[i].fn = nil
	}
	pd.scratch = ms[:0]
}
