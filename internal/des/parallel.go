package des

import "fmt"

// Partitioned is a conservative discrete-event engine over a fixed set of
// partition Sims. It advances them in lockstep time windows:
//
//	H       = min over partitions of the earliest pending event
//	horizon = H + lookahead
//
// Within a window every partition executes all of its events with
// timestamps strictly below horizon, in partition index order on the
// calling goroutine. The lookahead is a lower bound on cross-partition
// message latency: an event executing at t >= H can only schedule into
// another partition at t + lookahead >= horizon, i.e. into a later window,
// so no partition can receive an event for the window it is running.
// Cross-partition sends are therefore buffered in one outbox during the
// window and merged at the window's end, in canonical (timestamp, source
// partition, source seq) order, into the destination heaps. The partition
// count fixes the decomposition, and with it every artifact derived from
// the executed event order.
//
// Run is the package's one run loop, and its event budget (SetEventBudget)
// the one watchdog: the budget is checked between windows, so every
// partition stops at the same horizon and no partition is stranded
// mid-window. A one-partition engine pops its single heap in exactly the
// order a serial event loop would.
type Partitioned struct {
	sims      []*Sim
	lookahead float64

	// horizon is the current window's exclusive upper bound; Post checks
	// against it.
	horizon float64

	// outbox buffers the cross-partition sends not yet merged, in the
	// order they were posted.
	outbox []remote

	budget    uint64
	exhausted bool
}

// remote is a cross-partition event captured in the outbox: schedule fn on
// partition dst at absolute time at. Its source partition, and its position
// among that source's posts, supply the canonical tie-break for equal
// timestamps.
type remote struct {
	at       float64
	src, dst int
	fn       func()
}

// NewPartitioned creates an engine with parts partition Sims and the given
// cross-partition lookahead in virtual seconds. workers is ignored: every
// partition runs on the goroutine that calls Run.
func NewPartitioned(parts, workers int, lookahead float64) *Partitioned {
	if parts < 1 {
		panic(fmt.Sprintf("des: partition count %d", parts))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("des: lookahead %g", lookahead))
	}
	pd := &Partitioned{sims: make([]*Sim, parts), lookahead: lookahead}
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

// Dispatched returns the events dispatched across all partitions: the sum
// of the partition Sims' counts.
func (pd *Partitioned) Dispatched() uint64 {
	var n uint64
	for _, s := range pd.sims {
		n += s.dispatched
	}
	return n
}

// BudgetExhausted reports whether the watchdog stopped the latest Run with
// events still pending; each Run clears it when it starts.
func (pd *Partitioned) BudgetExhausted() bool { return pd.exhausted }

// Post buffers a cross-partition event: partition src, executing the current
// window, schedules fn on partition dst at absolute virtual time at. at must
// not land inside the current window — that would be a lookahead violation,
// meaning the caller's latency model undercuts the lookahead the engine was
// constructed with.
//
//lint:hotpath cross-partition send buffering runs once per remote message in the window loop
func (pd *Partitioned) Post(src, dst int, at float64, fn func()) {
	if at < pd.horizon {
		panic(fmt.Sprintf("des: lookahead violation (cross-partition event at %g < horizon %g)", at, pd.horizon))
	}
	//lint:ignore alloclint the outbox grows to its per-window high-water mark and is reused for the rest of the run
	pd.outbox = append(pd.outbox, remote{at: at, src: src, dst: dst, fn: fn})
}

// Run advances all partitions window by window until every event heap is
// empty or the event budget is exhausted.
func (pd *Partitioned) Run() {
	// Setup code (and a budget-exhausted pause) may Post cross-partition
	// events from outside any window; they sit in the outbox, invisible to
	// nextHorizon, until merged. Run starts at a window boundary, so flushing
	// them first is safe — and necessary: a program whose only pending work
	// is posted (a closed-loop client's opening requests, say) would
	// otherwise look finished.
	pd.exhausted = false
	pd.merge()
	for {
		h, ok := pd.nextHorizon()
		if !ok {
			return
		}
		if pd.budget > 0 && pd.Dispatched() >= pd.budget {
			pd.exhausted = true
			return
		}
		pd.horizon = h + pd.lookahead
		for _, s := range pd.sims {
			s.runBefore(pd.horizon)
		}
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

// merge drains the outbox into the destination heaps in canonical order. It
// stable-sorts the outbox by (timestamp, source partition); appends follow
// each source's execution order, so equal keys keep their source-seq order,
// and the destination Sim assigns its local seqs in exactly the canonical
// (timestamp, partition, seq) order — whichever order the sources posted in.
//
//lint:hotpath the merge runs once per time window on the critical path of the engine
func (pd *Partitioned) merge() {
	ms := pd.outbox
	// Stable insertion sort; windows are one lookahead wide, so the
	// cross-partition message count per merge is small.
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i - 1
		for j >= 0 && (ms[j].at > m.at || ms[j].at == m.at && ms[j].src > m.src) {
			ms[j+1] = ms[j]
			j--
		}
		ms[j+1] = m
	}
	for i := range ms {
		pd.sims[ms[i].dst].At(ms[i].at, ms[i].fn)
		ms[i].fn = nil // release the closure reference from the outbox
	}
	pd.outbox = ms[:0]
}
