package memslap

import (
	"fmt"

	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/netsim"
	"simdhtbench/internal/obs"
)

// Event-budget watchdog sizing (des.Sim.SetEventBudget): a healthy request
// costs ~6 events; timeouts, retries and pressure ticks add more. The
// budget depends only on the configuration, so hitting it is exactly as
// deterministic as the simulation — a runaway fault/retry loop becomes a
// typed error instead of an unbounded event loop.
const (
	eventBudgetPerRequest = 256
	eventBudgetSlack      = 100000
)

// requestBytes sizes an MGet request frame: fixed header plus per-key
// framing, as Run has always computed it.
func requestBytes(sub [][]byte, overhead int) int {
	n := 24
	for _, k := range sub {
		n += len(k) + overhead
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

// tokensLeft reports the current balance (unlimited buckets answer -1);
// for tests and end-of-run accounting.
func (b *retryBudget) tokensLeft() float64 {
	if b == nil {
		return -1
	}
	return b.tokens
}

// sendMGet issues one Multi-Get (sub-)batch to srv over the fabric and
// invokes done exactly once. With a nil plan this is precisely the healthy
// pipeline — request send, HandleMGet, response send — with not one extra
// event. With a plan armed it runs the degradation protocol: a virtual-time
// timeout per attempt, bounded retries with capped exponential backoff and
// seeded jitter, and a final degraded completion (ok=false) when retries
// are exhausted. The finished latch discards duplicate deliveries and
// stale responses that arrive after their attempt timed out, so done can
// never fire twice.
//
// Two overload controls hook in here. A Rejected response (server-side
// admission shed) advances to the next attempt immediately — no point
// waiting out the timeout when the server already said no — with the
// attempt generation counter keeping the now-stale timeout from advancing
// a second time. And every advance, whether from timeout or rejection,
// must be covered by the client's retry budget: an empty bucket degrades
// the batch on the spot instead of amplifying the overload that emptied
// it. A successful completion refills the budget.
func sendMGet(sim *des.Sim, clientEP, serverEP *netsim.Endpoint, srv *kvs.Server, sub [][]byte, reqBytes int, plan *fault.Plan, probe obs.FaultProbe, budget *retryBudget, op obs.OverloadProbe, done func(res kvs.MGetResult, ok bool, retries, timeouts int)) {
	attempt := 0
	timeouts := 0
	finished := false
	gen := 0 // attempt generation: bumped on every advance, guards stale timeouts/rejections
	var try func()
	advance := func() {
		if attempt >= plan.MaxRetries() {
			finished = true
			done(kvs.MGetResult{}, false, attempt, timeouts)
			return
		}
		if !budget.spend() {
			if op != nil {
				op.BudgetDenied(sim.Now())
			}
			finished = true
			done(kvs.MGetResult{}, false, attempt, timeouts)
			return
		}
		gen++
		attempt++
		backoff := plan.BackoffFor(attempt)
		if probe != nil {
			probe.RetryScheduled(attempt, backoff, sim.Now())
		}
		sim.After(backoff, try)
	}
	try = func() {
		myGen := gen
		clientEP.Send(serverEP, reqBytes, func() {
			srv.HandleMGet(sub, func(res kvs.MGetResult) {
				serverEP.Send(clientEP, res.RespBytes, func() {
					if finished {
						return
					}
					if res.Rejected {
						if gen != myGen {
							return // this attempt already timed out and advanced
						}
						if op != nil {
							op.RejectedObserved(0, sim.Now())
						}
						advance()
						return
					}
					finished = true
					budget.refill()
					done(res, true, attempt, timeouts)
				})
			})
		})
		if plan == nil {
			return
		}
		sim.After(plan.Timeout(), func() {
			if finished || gen != myGen {
				return
			}
			timeouts++
			if probe != nil {
				probe.TimeoutFired(attempt, sim.Now())
			}
			advance()
		})
	}
	try()
}

// schedulePressure arms the periodic insert-pressure ticks of srv's fault
// plan: every period, PressureItems ephemeral items spike the index's load
// factor. Ticks stop rescheduling once stop() reports the run is complete,
// so the event queue always drains. It reports whether pressure is armed.
func schedulePressure(sim *des.Sim, srv *kvs.Server, probe obs.FaultProbe, stop func() bool) bool {
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
		if probe != nil {
			probe.PressureApplied(inserted, failed, sim.Now())
		}
		sim.After(period, tick)
	}
	sim.After(period, tick)
	return true
}

// runToCompletion drains the simulation under the event-budget watchdog
// and folds the two failure shapes — budget exhausted, requests stuck —
// into errors. total is the expected request count; completed reads the
// current progress.
func runToCompletion(sim *des.Sim, total int, completed func() int) error {
	budget := uint64(total)*eventBudgetPerRequest + eventBudgetSlack
	sim.SetEventBudget(budget)
	sim.Run()
	if sim.BudgetExhausted() {
		return fmt.Errorf("memslap: watchdog: event budget %d exhausted after %d of %d requests — runaway fault/retry loop", budget, completed(), total)
	}
	if completed() < total {
		return fmt.Errorf("memslap: deadlock — completed %d of %d requests", completed(), total)
	}
	return nil
}

// MGet performs one functional Multi-Get against a cluster with the fault
// plan's full timeout/retry/degradation protocol and drives the simulation
// to completion. Keys map to servers through ring (nil ring sends
// everything to servers[0]). The returned values align with keys — nil for
// a key that was not found or whose sub-batch was abandoned. When any
// sub-batch exhausts its retries, err is a *kvs.PartialError carrying the
// served/missing split; the served subset is still returned. A Multi-Get
// therefore never hangs, panics, or silently claims full success.
func MGet(sim *des.Sim, fabric *netsim.Fabric, client string, servers []*kvs.Server, ring *kvs.Ring, keys [][]byte, plan *fault.Plan, probe obs.FaultProbe) ([][]byte, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("memslap: MGet needs at least one server")
	}
	if ring != nil && ring.Servers() != len(servers) {
		return nil, fmt.Errorf("memslap: ring and server list must agree")
	}
	// Partition key positions by owning server, in server order, so the
	// sub-batch issue order — and with it every fault-RNG draw — is
	// deterministic.
	positions := make([][]int, len(servers))
	for i, k := range keys {
		owner := 0
		if ring != nil {
			owner = ring.Owner(k)
		}
		positions[owner] = append(positions[owner], i)
	}

	values := make([][]byte, len(keys))
	pe := &kvs.PartialError{}
	clientEP := fabric.Endpoint(client)
	budget := newRetryBudget(plan.RetryBudget())
	for s := range servers {
		if len(positions[s]) == 0 {
			continue
		}
		s := s
		pos := positions[s]
		sub := make([][]byte, len(pos))
		for j, p := range pos {
			sub[j] = keys[p]
		}
		serverEP := fabric.Endpoint(fmt.Sprintf("server-%d", s))
		sendMGet(sim, clientEP, serverEP, servers[s], sub, requestBytes(sub, 8), plan, probe, budget, nil,
			func(res kvs.MGetResult, ok bool, retries, timeouts int) {
				pe.Retries += retries
				pe.Timeouts += timeouts
				if !ok {
					pe.Missing += len(sub)
					return
				}
				pe.Served += len(sub)
				for j, p := range pos {
					values[p] = res.Values[j]
				}
			})
	}
	sim.Run()

	if pe.Missing > 0 {
		if probe != nil {
			probe.BatchDegraded(pe.Served, pe.Missing, sim.Now())
		}
		return values, pe
	}
	return values, nil
}
