package engine

import (
	"simdhtbench/internal/arch"
	"simdhtbench/internal/obs/prof"
)

// Phase is the ambient template phase cycle charges are attributed to when a
// profiler is attached: the middle frame of the paper's attribution story
// (experiment → backend → phase → cache level). Templates bracket their
// regions with SetPhase; charges outside any bracket land in PhaseOther.
type Phase uint8

const (
	PhaseOther Phase = iota
	PhaseHash
	PhaseProbe
	PhaseGather
	PhaseFill

	// NumPhases sizes the per-phase handle caches.
	NumPhases = int(PhaseFill) + 1
)

var phaseNames = [NumPhases]string{"other", "hash", "probe", "gather", "fill"}

// String returns the frame name the phase is profiled under.
func (p Phase) String() string { return phaseNames[p] }

// SetProfiler attaches a cycle-accounting profiler (nil detaches). Like
// probes, the profiler is strictly observational — every attributed value is
// the exact cost the engine charges itself, mirrored in the exact same order
// — so prof.Total() stays bit-identical (==) to Cycles(). Attach it on a
// fresh engine, or immediately around a ResetCycles, so the mirror and the
// cycle counter start from zero together; resetting cycles mid-attachment
// would desynchronize them.
func (e *Engine) SetProfiler(p *prof.Profiler) {
	e.prof = p
	e.phase = PhaseOther
	e.profPhase = [NumPhases]prof.Handle{}
	e.profOp = [NumPhases][arch.NumOpClasses]prof.Handle{}
	e.profFixed = [NumPhases]prof.Handle{}
	e.profLicense = 0
	if p == nil {
		e.memLeafNames = nil
		for i := range e.profMem {
			e.profMem[i] = nil
		}
		return
	}
	levels := e.Cache.Levels()
	e.memLeafNames = make([]string, len(levels)+2)
	for i, name := range levels {
		e.memLeafNames[i] = "mem:" + name
	}
	e.memLeafNames[len(levels)] = "mem:DRAM"
	e.memLeafNames[len(levels)+1] = "mem:stream"
	for i := range e.profMem {
		e.profMem[i] = make([]prof.Handle, len(e.memLeafNames))
	}
}

// SetPhase sets the ambient attribution phase and returns the previous one,
// which the caller restores when its region ends. It is a plain field write —
// free whether or not a profiler is attached — so templates keep their phase
// brackets unconditionally.
func (e *Engine) SetPhase(ph Phase) Phase {
	prev := e.phase
	e.phase = ph
	return prev
}

// The handle caches below all use prof.Handle zero (the root) as the
// "unresolved" sentinel: every engine leaf is a descendant of the root, so a
// cached 0 can only mean "not yet resolved". Resolution allocates tree nodes
// once per distinct leaf; the steady state is two array indexes. Each
// accessor is split into an inlined cache read and an out-of-line resolve,
// so an attributed charge costs no extra call once its leaf is known.

func (e *Engine) profPhaseHandle(ph Phase) prof.Handle {
	h := e.profPhase[ph]
	if h == 0 {
		h = e.prof.Child(prof.Root, phaseNames[ph])
		e.profPhase[ph] = h
	}
	return h
}

func (e *Engine) profOpHandle(c arch.OpClass) prof.Handle {
	if h := e.profOp[e.phase][c]; h != 0 {
		return h
	}
	return e.resolveOpHandle(c)
}

func (e *Engine) resolveOpHandle(c arch.OpClass) prof.Handle {
	h := e.prof.Child(e.profPhaseHandle(e.phase), c.String())
	e.profOp[e.phase][c] = h
	return h
}

func (e *Engine) profFixedHandle() prof.Handle {
	if h := e.profFixed[e.phase]; h != 0 {
		return h
	}
	return e.resolveFixedHandle()
}

func (e *Engine) resolveFixedHandle() prof.Handle {
	h := e.prof.Child(e.profPhaseHandle(e.phase), "fixed")
	e.profFixed[e.phase] = h
	return h
}

// profMemHandle resolves the mem:<level> leaf under the current phase.
// served indexes Cache.Levels(), with len(levels) meaning DRAM and
// len(levels)+1 the prefetched-stream pseudo level.
func (e *Engine) profMemHandle(served int) prof.Handle {
	if h := e.profMem[e.phase][served]; h != 0 {
		return h
	}
	return e.resolveMemHandle(served)
}

func (e *Engine) resolveMemHandle(served int) prof.Handle {
	h := e.prof.Child(e.profPhaseHandle(e.phase), e.memLeafNames[served])
	e.profMem[e.phase][served] = h
	return h
}

// profLicenseHandle resolves the events-only width-license frame (a root
// child: license transitions are a run property, not a phase cost).
func (e *Engine) profLicenseHandle() prof.Handle {
	if e.profLicense == 0 {
		e.profLicense = e.prof.Child(prof.Root, "license")
	}
	return e.profLicense
}
