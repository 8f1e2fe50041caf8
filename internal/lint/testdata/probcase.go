// Package probcase is a problint test fixture, loaded under the synthetic
// import path simdhtbench/internal/probcase. It exercises the must-analysis
// over probe nil guards and armed-plan gating of FaultProbe and ClientProbe
// registration; each "want" comment states the diagnostic the harness
// expects on that line.
package probcase

import (
	"simdhtbench/internal/fault"
	"simdhtbench/internal/obs"
)

type host struct {
	Eng obs.EngineProbe
	Net obs.NetProbe
}

func guarded(h *host, at float64) {
	if h.Eng != nil {
		h.Eng.WidthLicensed(512, at)
	}
}

func unguarded(h *host, at float64) {
	h.Eng.WidthLicensed(512, at) // want `probe call h\.Eng\.WidthLicensed without a dominating nil guard on h\.Eng`
}

func invertedGuard(p obs.EngineProbe, at float64) {
	if p == nil {
		return
	}
	p.WidthLicensed(512, at)
}

func orGuard(p obs.EngineProbe, n int, at float64) {
	if p == nil || n == 0 {
		return
	}
	p.WidthLicensed(512, at)
}

func compoundGuard(h *host, at float64) {
	if h.Eng != nil && h.Net != nil {
		h.Eng.WidthLicensed(512, at)
		h.Net.MessageSent("a", "b", 1, 1, at, at)
	}
	// A disjunctive guard proves neither operand non-nil on its true branch.
	if h.Eng != nil || h.Net != nil {
		h.Eng.WidthLicensed(512, at) // want `probe call h\.Eng\.WidthLicensed without a dominating nil guard on h\.Eng`
	}
}

func shortCircuitDeref(p obs.EngineProbe, at float64) {
	// The guard and the deref share one statement: scan must honor the
	// short-circuit fact on the right operand.
	if p != nil && at > 0 {
		p.WidthLicensed(512, at)
	}
}

func killedGuard(p, q obs.EngineProbe, at float64) {
	if p != nil {
		p = q
		p.WidthLicensed(512, at) // want `probe call p\.WidthLicensed without a dominating nil guard on p`
	}
}

func loopKill(h *host, ps []obs.EngineProbe, at float64) {
	if h.Eng != nil {
		for _, p := range ps {
			if p != nil {
				p.WidthLicensed(512, at)
			}
			h.Eng = p
		}
		// The loop body may have replaced the guarded value: the fact does
		// not survive the back edge's meet.
		h.Eng.WidthLicensed(512, at) // want `probe call h\.Eng\.WidthLicensed without a dominating nil guard on h\.Eng`
	}
}

func closureInherits(p obs.EngineProbe, at float64) func() {
	if p == nil {
		return func() {}
	}
	return func() { p.WidthLicensed(512, at) } // legal: the guard dominates the literal's creation
}

func closureUnguarded(p obs.EngineProbe, at float64) func() {
	return func() { p.WidthLicensed(512, at) } // want `probe call p\.WidthLicensed without a dominating nil guard on p`
}

func closureKills(h *host, q obs.EngineProbe, at float64) {
	if h.Eng != nil {
		reset := func() { h.Eng = q }
		reset()
		h.Eng.WidthLicensed(512, at) // want `probe call h\.Eng\.WidthLicensed without a dominating nil guard on h\.Eng`
	}
}

func registerUngated(col *obs.Collector) obs.FaultProbe {
	return col.FaultProbe() // want `FaultProbe registration not dominated by an armed fault plan`
}

func registerPlanGated(col *obs.Collector, plan *fault.Plan) obs.FaultProbe {
	if plan == nil {
		return nil
	}
	return col.FaultProbe()
}

func registerSpecGated(col *obs.Collector, spec fault.Spec) obs.FaultProbe {
	if spec.Enabled() {
		return col.FaultProbe()
	}
	return nil
}

func registerClientUngated(col *obs.Collector) obs.ClientProbe {
	return col.ClientProbe() // want `ClientProbe registration not dominated by an armed fault plan`
}

func registerClientPlanGated(col *obs.Collector, plan *fault.Plan) obs.ClientProbe {
	if plan != nil {
		return col.ClientProbe()
	}
	return nil
}
