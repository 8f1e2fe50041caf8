package experiments

import (
	"cmp"
	"fmt"
	"math"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/report"
)

// Overload-control derivation constants. The study measures the fleet's
// closed-loop capacity first and derives every control from it, so the same
// code produces sensible controls at laptop-golden scale and at paper scale.
const (
	// overloadTimeoutP99Factor sizes the client timeout as a multiple of
	// the closed-loop p99 latency — loose enough that a healthy fleet never
	// times out, tight enough that queue growth past it is real overload.
	overloadTimeoutP99Factor = 4.0
	// overloadBackoffFrac sizes the retry backoff as a fraction of the
	// timeout.
	overloadBackoffFrac = 0.25
	// overloadRetries bounds retries per request (both modes, so the only
	// difference between the curves is the overload controls).
	overloadRetries = 3
	// overloadBudgetTokens is the controls-on retry-budget capacity: a
	// client rides out a burst of this many retries at full aggression,
	// then retries are capped at fault.BudgetRefillPerSuccess per success.
	overloadBudgetTokens = 10
	// overloadHedgeTimeoutFrac sizes the hedge delay as a fraction of the
	// timeout: past the controlled-queue latency (a hedge that fires on the
	// typical request duplicates the whole load, the classic hedging
	// failure) but before the timeout, so a hedge still beats the retry
	// path for genuine stragglers.
	overloadHedgeTimeoutFrac = 0.5
	// overloadQdeadlineTimeoutFrac sizes the server queue deadline as a
	// fraction of the client timeout: work that waited longer than this is
	// dead on arrival at the client and is shed instead of served.
	overloadQdeadlineTimeoutFrac = 0.75
	// overloadQdepthFrac sizes the admission queue so that admitted work
	// drains within about this fraction of the queue deadline.
	overloadQdepthFrac = 0.5
	// overloadSaturationClients sizes the capacity run's closed-loop client
	// count per server worker: enough outstanding requests to saturate
	// every worker queue, so measured goodput is the service capacity, not
	// a concurrency artifact.
	overloadSaturationClients = 8
	// overloadReplication is the replica-set width R, clamped to the fleet
	// width: failover and hedged reads need a second replica.
	overloadReplication = 2
)

// OverloadOptions sizes the metastable-overload study; the interesting axis
// is offered load as a multiple of measured capacity, with the overload
// controls off versus on. DefaultOverloadOptions holds the laptop-scale
// values kvsbench runs by default. The study rejects what KVSOptions
// rejects, a non-positive Servers, an empty Multipliers or one that is not
// positive and finite, and an enabled Faults (it derives its own specs),
// with a *memslap.ConfigError naming the field.
type OverloadOptions struct {
	KVSOptions

	// Servers is the fleet width.
	Servers int
	// Multipliers is the offered-load axis, as multiples of the measured
	// closed-loop capacity.
	Multipliers []float64
}

// DefaultOverloadOptions returns the options `kvsbench overload` runs by
// default.
func DefaultOverloadOptions() OverloadOptions {
	return OverloadOptions{
		KVSOptions:  DefaultKVSOptions(),
		Servers:     4,
		Multipliers: []float64{0.5, 0.75, 1, 1.5, 2},
	}
}

func (o OverloadOptions) validate() error {
	if err := cmp.Or(
		o.KVSOptions.validate(),
		positive("servers", o.Servers),
		positive("load multiplier", o.Multipliers...),
	); err != nil {
		return err
	}
	if o.Faults.Enabled() {
		return &memslap.ConfigError{Field: "faults", Reason: "the overload study derives its own specs from measured capacity"}
	}
	return nil
}

// replication is the study's replica-set width at o.Servers.
func (o OverloadOptions) replication() int {
	return min(overloadReplication, o.Servers)
}

// OverloadPoint is one cell of the sweep: one offered-load multiplier in
// one mode.
type OverloadPoint struct {
	Multiplier float64
	Controls   bool    // false = timeout/retry only, true = full overload controls
	OfferedReq float64 // offered arrival rate, Multi-Gets/s
	Results    memslap.FleetResults
}

// OverloadResult is the study's structured output: the measured capacity,
// the two derived fault specs, and every sweep point in deterministic order
// (all multipliers controls-off, then all controls-on).
type OverloadResult struct {
	CapacityKeys float64 // saturated closed-loop goodput, keys/s of virtual time
	CapacityReq  float64 // saturated closed-loop Multi-Get completion rate, requests/s
	BaselineP99  float64 // unsaturated closed-loop p99 latency, seconds
	OffSpec      fault.Spec
	OnSpec       fault.Spec
	Points       []OverloadPoint
}

// roundUs snaps a derived duration to whole microseconds (at least one) so
// the derived specs render canonically and round-trip through ParseSpec.
func roundUs(sec float64) float64 {
	us := math.Round(sec * 1e6)
	if us < 1 {
		us = 1
	}
	return us / 1e6
}

// deriveOverloadSpecs turns the measured baseline latency and saturated
// capacity into the two sweep specs. Both share timeout/retries/backoff —
// the only difference between the curves is the overload controls.
func deriveOverloadSpecs(baselineP99, capacityReq float64, servers int) (off, on fault.Spec) {
	timeout := roundUs(overloadTimeoutP99Factor * baselineP99)
	off = fault.Spec{
		Timeout: timeout,
		Retries: overloadRetries,
		Backoff: roundUs(overloadBackoffFrac * timeout),
	}
	on = off
	qdeadline := roundUs(overloadQdeadlineTimeoutFrac * timeout)
	// Admission queue depth: the requests one server completes in about
	// half a queue deadline. Admitted work then drains before it goes
	// stale; everything past that is shed at arrival for 16 bytes instead
	// of being served into a void.
	qdepth := int(overloadQdepthFrac * qdeadline * capacityReq / float64(servers))
	if qdepth < 2 {
		qdepth = 2
	}
	on.QueueDepth = qdepth
	on.QueueDeadline = qdeadline
	on.RetryBudget = overloadBudgetTokens
	on.Hedge = roundUs(overloadHedgeTimeoutFrac * timeout)
	return off, on
}

// overloadRun is one run of the study: a fleet of o.Servers at
// R=o.replication() under spec, closed loop with clients when arrival is 0
// and open loop at arrival otherwise. The fleet is fault-free apart from
// the client protocol and the server admission controls — overload is the
// only adversary.
func (o OverloadOptions) overloadRun(label string, spec fault.Spec, arrival float64, clients int) kvsRun {
	repl := o.replication()
	return kvsRun{
		label: label,
		shape: fleetShape{
			backend: "vertical", servers: o.Servers, replication: repl,
			capacity: replicatedCapacity(o.Items, o.Servers, repl), batchCap: fleetBatchCap,
		},
		faults: spec,
		cfg: memslap.FleetConfig{
			Config:      memslap.Config{Clients: clients, BatchSize: o.Batches[0]},
			ArrivalRate: arrival,
		},
		fleetProbe: true,
	}
}

// OverloadStudyResult runs the full study and returns its structured
// output. Phase one measures closed-loop capacity on a fault-free fleet and
// derives the control settings from it; phase two sweeps offered load from
// 0.5x to 2x capacity with the controls off (timeout/retry only — the
// metastable configuration) and on (admission control, queue deadlines,
// retry budgets, hedged reads). The study derives its own specs, so it
// rejects an enabled o.Faults by name; o.FaultSeed seeds the derived plans.
// The baseline and capacity runs are sequential; the sweep points fan out
// as hermetic jobs, so every artifact is byte-identical at any Parallel
// setting.
func OverloadStudyResult(o OverloadOptions) (OverloadResult, error) {
	if err := o.validate(); err != nil {
		return OverloadResult{}, err
	}
	// Baseline: the configured (light) client count, closed loop — healthy
	// tail latency for the timeout/hedge derivation.
	base, err := o.overloadRun("overload baseline", fault.Spec{}, 0, o.Clients).run(o.KVSOptions)
	if err != nil {
		return OverloadResult{}, err
	}
	// Capacity: enough closed-loop clients to saturate every worker —
	// measured goodput is the fleet's service capacity, the x-axis unit.
	satClients := max(overloadSaturationClients*o.Servers*o.Workers, o.Clients)
	cap, err := o.overloadRun("overload capacity", fault.Spec{}, 0, satClients).run(o.KVSOptions)
	if err != nil {
		return OverloadResult{}, err
	}
	out := OverloadResult{
		CapacityKeys: cap.GoodputKeys,
		CapacityReq:  cap.GoodputKeys / float64(o.Batches[0]),
		BaselineP99:  base.P99Latency,
	}
	out.OffSpec, out.OnSpec = deriveOverloadSpecs(out.BaselineP99, out.CapacityReq, o.Servers)

	// All multipliers controls-off, then all controls-on.
	var runs []kvsRun
	for i, spec := range []fault.Spec{out.OffSpec, out.OnSpec} {
		mode := [...]string{"off", "on"}[i]
		for _, m := range o.Multipliers {
			runs = append(runs, o.overloadRun(fmt.Sprintf("overload %s x%.2f", mode, m), spec, m*out.CapacityReq, o.Clients))
		}
	}
	results, err := runKVSRuns(o.KVSOptions, runs)
	if err != nil {
		return OverloadResult{}, err
	}
	out.Points = make([]OverloadPoint, len(results))
	for i, res := range results {
		out.Points[i] = OverloadPoint{
			Multiplier: o.Multipliers[i%len(o.Multipliers)],
			Controls:   i >= len(o.Multipliers),
			OfferedReq: runs[i].cfg.ArrivalRate,
			Results:    res,
		}
	}
	return out, nil
}

// OverloadTable renders the metastable-overload study: goodput and tail
// latency versus offered load, controls off versus on. The controls-off
// curve collapses past capacity — timeouts fire retries, retries add load,
// served work goes stale before its client accepts it — while the
// controls-on curve degrades gracefully: excess load is shed at admission
// for a 16-byte reject, retries are budgeted, and goodput holds at or
// above capacity.
func OverloadTable(o OverloadOptions, res OverloadResult) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Extension: metastable overload and graceful degradation (%d servers, R=%d, capacity %.3f Mkeys/s; off=%s; on=%s)",
			o.Servers, o.replication(), res.CapacityKeys/1e6, res.OffSpec.String(), res.OnSpec.String()),
		"Controls", "Offered (x)", "Offered (req/s)", "Goodput (Mkeys/s)", "p99 (us)", "p999 (us)",
		"Timeouts", "Retries", "Degraded", "ShedQ", "ShedDL", "Hedges", "HedgeWins", "BudgetDenied")
	for _, p := range res.Points {
		mode := "off"
		if p.Controls {
			mode = "on"
		}
		r := p.Results
		t.AddRow(mode,
			fmt.Sprintf("%.2f", p.Multiplier),
			fmt.Sprintf("%.0f", p.OfferedReq),
			fmt.Sprintf("%.3f", r.GoodputKeys/1e6),
			fmt.Sprintf("%.1f", r.P99Latency*1e6),
			fmt.Sprintf("%.1f", r.P999Latency*1e6),
			r.Timeouts, r.Retries, r.Degraded,
			r.ShedQueueFull, r.ShedDeadline, r.Hedges, r.HedgeWins, r.BudgetDenied)
	}
	return t
}
