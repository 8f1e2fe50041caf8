package des

import "fmt"

// refPartitioned is the reference window loop FuzzPartitionedMatchesReference
// checks Partitioned against: the engine as it ran on one host worker, with
// one outbox per source partition and a merge that concatenates the outboxes
// in source order and stable-sorts the result by timestamp alone. It runs on
// the package's own Sim, so a comparison isolates the window loop, the
// budget and the merge.
type refPartitioned struct {
	sims       []*Sim
	lookahead  float64
	horizon    float64
	outbox     [][]refRemote
	budget     uint64
	dispatched uint64
	exhausted  bool
}

// engine is what the tests drive: Partitioned or refPartitioned.
type engine interface {
	Sim(i int) *Sim
	Post(src, dst int, at float64, fn func())
	Run()
	SetEventBudget(n uint64)
	Dispatched() uint64
	BudgetExhausted() bool
}

type refRemote struct {
	at  float64
	dst int
	fn  func()
}

func newRefPartitioned(parts int, lookahead float64) *refPartitioned {
	r := &refPartitioned{sims: make([]*Sim, parts), lookahead: lookahead, outbox: make([][]refRemote, parts)}
	for i := range r.sims {
		r.sims[i] = &Sim{}
	}
	return r
}

func (r *refPartitioned) Sim(i int) *Sim          { return r.sims[i] }
func (r *refPartitioned) SetEventBudget(n uint64) { r.budget = n }
func (r *refPartitioned) Dispatched() uint64      { return r.dispatched }
func (r *refPartitioned) BudgetExhausted() bool   { return r.exhausted }

func (r *refPartitioned) Post(src, dst int, at float64, fn func()) {
	if at < r.horizon {
		panic(fmt.Sprintf("des: lookahead violation (cross-partition event at %g < horizon %g)", at, r.horizon))
	}
	r.outbox[src] = append(r.outbox[src], refRemote{at: at, dst: dst, fn: fn})
}

func (r *refPartitioned) Run() {
	r.exhausted = false
	r.merge()
	for {
		var h float64
		ok := false
		for _, s := range r.sims {
			if t, has := s.NextEventAt(); has && (!ok || t < h) {
				h, ok = t, true
			}
		}
		if !ok {
			return
		}
		if r.budget > 0 && r.dispatched >= r.budget {
			r.exhausted = true
			return
		}
		r.horizon = h + r.lookahead
		for _, s := range r.sims {
			r.dispatched += s.runBefore(r.horizon)
		}
		r.merge()
	}
}

func (r *refPartitioned) merge() {
	var ms []refRemote
	for src := range r.outbox {
		ms = append(ms, r.outbox[src]...)
		r.outbox[src] = nil
	}
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i - 1
		for j >= 0 && ms[j].at > m.at {
			ms[j+1] = ms[j]
			j--
		}
		ms[j+1] = m
	}
	for _, m := range ms {
		r.sims[m.dst].At(m.at, m.fn)
	}
}
