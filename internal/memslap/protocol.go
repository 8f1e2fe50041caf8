package memslap

import (
	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
)

// Event-budget watchdog sizing (des.Partitioned.SetEventBudget): a healthy
// request costs ~6 events; timeouts, retries and pressure ticks add more.
// The budget depends only on the configuration, so hitting it is exactly as
// deterministic as the simulation — a runaway fault/retry loop becomes a
// typed error instead of an unbounded event loop.
const (
	eventBudgetPerRequest = 256
	eventBudgetSlack      = 100000
)

// requestBytes sizes an MGet request frame: fixed header plus per-key
// framing.
func requestBytes(sub [][]byte) int {
	n := 24
	for _, k := range sub {
		n += len(k) + requestKeyOverheadBytes
	}
	return n
}

// retryBudget is the client-side retry token bucket (budget= in the fault
// spec): each retry spends one token and each fully-served request refills
// fault.BudgetRefillPerSuccess tokens, up to the configured cap. The bucket
// starts full, so a client rides out a short fault burst at full retry
// aggression, but under sustained overload retries are capped at ~10% of
// goodput — the amplification bound that keeps timeouts from turning
// overload into metastable collapse. A nil budget is unlimited (the
// default), preserving the pre-budget protocol byte-for-byte.
type retryBudget struct {
	tokens float64
	cap    float64
}

// newRetryBudget builds a bucket with the given capacity; cap <= 0 (budget
// unset in the spec) returns the nil, unlimited budget.
func newRetryBudget(tokens int) *retryBudget {
	if tokens <= 0 {
		return nil
	}
	return &retryBudget{tokens: float64(tokens), cap: float64(tokens)}
}

// spend takes one token, reporting false when the bucket cannot cover a
// whole retry.
func (b *retryBudget) spend() bool {
	if b == nil {
		return true
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refill credits a fully-served request's success back into the bucket.
func (b *retryBudget) refill() {
	if b == nil {
		return
	}
	if b.tokens += fault.BudgetRefillPerSuccess; b.tokens > b.cap {
		b.tokens = b.cap
	}
}

// schedulePressure arms the periodic insert-pressure ticks of srv's fault
// plan on the server's own simulation: every period, PressureItems
// ephemeral items spike the index's load factor, observed by the server's
// FaultProbe. Ticks stop rescheduling once stop() reports the run is
// complete, so the event queue always drains. It reports whether pressure
// is armed.
func schedulePressure(srv *kvs.Server, stop func() bool) bool {
	period := srv.Faults.PressurePeriod()
	items := srv.Faults.PressureItems()
	if period <= 0 || items <= 0 {
		return false
	}
	var tick func()
	tick = func() {
		if stop() {
			return
		}
		inserted, failed := srv.ApplyPressure(items)
		if srv.FaultProbe != nil {
			srv.FaultProbe.PressureApplied(inserted, failed, srv.Sim.Now())
		}
		srv.Sim.After(period, tick)
	}
	srv.Sim.After(period, tick)
	return true
}
