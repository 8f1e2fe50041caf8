package core

import (
	"fmt"
	"math/rand"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/workload"
)

// Measurement is the outcome of running one lookup variant over the query
// stream on one simulated core.
type Measurement struct {
	Choice          Choice  // zero-value Choice for the scalar baseline
	Scalar          bool    // true for the non-SIMD baseline
	LookupsPerSec   float64 // per-core throughput
	CyclesPerLookup float64
	Hits            int
	L1HitRate       float64
	DRAMPerLookup   float64 // DRAM line fills per lookup

	// MemCyclesPerLookup is the memory-system share of CyclesPerLookup;
	// the remainder is instruction cost. OpCycles breaks the instruction
	// share down by op class (cycles per lookup) — the instrument behind
	// "where does each design spend its time".
	MemCyclesPerLookup float64
	OpCycles           map[arch.OpClass]float64

	// PressureInserted/PressureFailed count the transient insert-pressure
	// items applied inside the measured window (Params.Faults); both zero
	// without an armed fault plan. Failed inserts hit table-full after
	// exhausting their kick chains — still charged.
	PressureInserted int
	PressureFailed   int

	// CacheLevels is the measured window's per-level hit/miss traffic,
	// outermost level first, with a final DRAM entry (fills only). It
	// feeds the -breakdown cache column.
	CacheLevels []LevelStat

	// HostSeconds is the wall-clock time the simulator spent executing the
	// measured window, and SimSpeed the resulting simulator throughput in
	// simulated Mlookups per host second. Both are profiling-only values:
	// they vary run to run and must never reach deterministic (golden)
	// output — reporting is opt-in (Params.RecordSimSpeed, -simspeed).
	HostSeconds float64
	SimSpeed    float64
}

// LevelStat is one cache level's traffic during the measured window.
type LevelStat struct {
	Name   string
	Hits   uint64
	Misses uint64
}

// Result is the performance engine's report for one Params configuration:
// the scalar baseline and every viable SIMD design choice, measured over
// the identical table and query stream.
type Result struct {
	Params     Params
	Layout     cuckoo.Layout
	AchievedLF float64
	Inserted   int
	Scalar     Measurement
	// AMAC is the group-prefetching scalar baseline, measured only when
	// Params.WithAMAC is set (an extension beyond the paper's baselines).
	AMAC   *Measurement
	Vector []Measurement
}

// Best returns the highest-throughput vector measurement, or false when no
// SIMD design was viable.
func (r *Result) Best() (Measurement, bool) {
	var best Measurement
	ok := false
	for _, m := range r.Vector {
		if !ok || m.LookupsPerSec > best.LookupsPerSec {
			best, ok = m, true
		}
	}
	return best, ok
}

// Speedup returns m's throughput relative to the scalar baseline.
func (r *Result) Speedup(m Measurement) float64 {
	if r.Scalar.LookupsPerSec == 0 {
		return 0
	}
	return m.LookupsPerSec / r.Scalar.LookupsPerSec
}

// Run is the performance engine (Fig. 4 ④): it builds the configured table,
// fills it to the target load factor, generates the operation stream,
// validates the SIMD design choices, and measures the scalar baseline plus
// every viable SIMD variant. Each variant runs on a fresh simulated core (cold
// cache) with an uncharged warm-up pass, exactly mirroring the paper's
// discarded warm-up iterations.
func Run(p Params) (*Result, error) {
	p, err := p.resolve()
	if err != nil {
		return nil, err
	}
	layout, err := cuckoo.LayoutForBytes(p.N, p.M, p.KeyBits, p.ValBits, p.TableBytes)
	if err != nil {
		return nil, err
	}
	layout.Split = p.Split
	if err := layout.Validate(); err != nil {
		return nil, err
	}

	space := mem.NewAddressSpace()
	table, err := cuckoo.New(space, layout, p.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed + 1))
	stored, lf := table.FillRandom(p.LoadFactor, rng)
	if len(stored) == 0 {
		return nil, fmt.Errorf("core: table fill produced no items for %s", layout)
	}

	var gen workload.Generator
	if len(p.Trace) > 0 {
		for _, k := range p.Trace {
			if k&^layout.KeyMask() != 0 {
				return nil, fmt.Errorf("core: trace key %#x exceeds %d bits", k, p.KeyBits)
			}
		}
		gen, err = workload.NewTraceGenerator(p.Trace)
	} else {
		gen, err = workload.New(stored, workload.Config{
			Pattern: p.Pattern,
			HitRate: p.HitRate,
			KeyBits: p.KeyBits,
			Seed:    p.Seed + 2,
		})
	}
	if err != nil {
		return nil, err
	}
	warmup := p.Queries / 5
	keys, update := operations(p, gen, stored, warmup)
	stream := cuckoo.NewStream(space, keys, p.KeyBits)
	res := cuckoo.NewResultBuf(space, len(keys), p.ValBits)

	// ops turns a lookup batch into an operation batch over the same span:
	// the lookups between two updates run as one batch, and each update
	// overwrites its stored key's payload on the charged insert path.
	ops := func(lookup batch) batch {
		return func(e *engine.Engine, from, n int) int {
			hits, start := 0, from
			for i := from; i < from+n; i++ {
				if !update[i] {
					continue
				}
				if i > start {
					hits += lookup(e, start, i-start)
				}
				// A stored key is overwritten in place, so this cannot fail.
				if err := table.InsertCharged(e, keys[i], cuckoo.PayloadFor(keys[i]+1, p.ValBits)); err != nil {
					panic(fmt.Sprintf("core: update of stored key %#x failed: %v", keys[i], err))
				}
				start = i + 1
			}
			if end := from + n; end > start {
				hits += lookup(e, start, end-start)
			}
			return hits
		}
	}

	result := &Result{Params: p, Layout: layout, AchievedLF: lf, Inserted: len(stored)}

	// Scalar baseline.
	scalarRun := func(e *engine.Engine, from, n int) int {
		return table.LookupScalarBatch(e, stream, from, n, res, nil)
	}
	result.Scalar = measure(p, table, ops(scalarRun), warmup, arch.WidthScalar, "scalar")
	result.Scalar.Scalar = true

	if p.WithAMAC {
		cfg := cuckoo.AMACConfig{}
		amacRun := func(e *engine.Engine, from, n int) int {
			return table.LookupAMACBatch(e, stream, from, n, cfg, res, nil)
		}
		m := measure(p, table, ops(amacRun), warmup, arch.WidthScalar, "amac")
		m.Scalar = true
		result.AMAC = &m
	}

	// Every viable SIMD design choice.
	for _, c := range EnumerateChoices(p.Arch, layout, p.Widths, p.Approaches) {
		c := c
		var run batch
		switch c.Approach {
		case Horizontal:
			cfg := cuckoo.HorizontalConfig{Width: c.Width, BucketsPerVec: c.BucketsPerVec}
			run = func(e *engine.Engine, from, n int) int {
				return table.LookupHorizontalBatch(e, stream, from, n, cfg, res, nil)
			}
		case Vertical, VerticalHybrid:
			cfg := cuckoo.VerticalConfig{Width: c.Width}
			run = func(e *engine.Engine, from, n int) int {
				return table.LookupVerticalBatch(e, stream, from, n, cfg, res, nil)
			}
		default:
			return nil, fmt.Errorf("core: unknown approach %v", c.Approach)
		}
		m := measure(p, table, ops(run), warmup, c.Width, c.String())
		m.Choice = c
		result.Vector = append(result.Vector, m)
	}
	return result, nil
}

// batch runs the operations [from, from+n) of the stream on e and returns
// the lookup hits.
type batch func(e *engine.Engine, from, n int) int

// operations draws the operation stream: warmup operations, then Queries
// measured ones. Each operation is an update with probability
// UpdateFraction, drawn from its own RNG; update marks those positions,
// whose key is a stored key to overwrite. Lookup keys come from gen, so a
// read-only stream draws exactly workload.Keys(gen, n).
func operations(p Params, gen workload.Generator, stored []uint64, warmup int) (keys []uint64, update []bool) {
	n := warmup + p.Queries
	keys, update = make([]uint64, n), make([]bool, n)
	rng := rand.New(rand.NewSource(p.Seed + 3))
	for i := range keys {
		if rng.Float64() < p.UpdateFraction {
			keys[i], update[i] = stored[rng.Intn(len(stored))], true
		} else {
			keys[i] = gen.Next()
		}
	}
	return keys, update
}

// measure runs the warmup operations (uncharged) then the measured window
// on a fresh engine and converts cycles to per-core throughput at the
// license frequency for the given maximum vector width.
//
// Warm-up first walks the entire table into the simulated hierarchy
// (measuring steady state, as the paper's discarded warm-up iterations do:
// a long-running shared read-only table is resident in whatever cache
// levels can hold it) and then replays warm-up queries so the hot set's
// recency reflects the access pattern.
func measure(p Params, table *cuckoo.Table, run batch, warmup, width int, variant string) Measurement {
	e := engine.New(p.Arch, p.Cores)
	vc := p.Obs.Scope("variant", variant)
	if vc != nil {
		e.SetProbe(vc.EngineProbe())
		e.Cache.Probe = vc.CacheProbe()
	}
	e.SetCharging(false)
	e.Cache.Touch(table.Arena.Base(), table.Arena.Size())
	run(e, 0, warmup)
	e.SetCharging(true)
	e.ResetCycles()
	if vc != nil {
		// Attach the cycle-account profiler only for the measured window
		// (after warm-up, right at the cycle reset) so its Total mirrors
		// e.Cycles() exactly. Profiler returns nil — the free "off" state —
		// unless profiling was enabled on the run's collector.
		e.SetProfiler(vc.Profiler("cycles"))
	}

	// Each variant gets a fresh identically-seeded plan, so every variant
	// draws the same pressure keys at the same points in its stream.
	plan := p.Faults.NewPlan(p.FaultSeed)
	var hits, pressured, pressFailed int
	// Wall-clock time of the measured window, for the sim-speed metric.
	// obs.WallNow is the module's sanctioned wall-clock read; the values
	// derived from it stay out of all deterministic output.
	hostStart := obs.WallNow()
	if items := plan.PressureItems(); items > 0 {
		// Chunk the measured window and spike the load factor between
		// chunks: PressureItems ephemeral odd keys (never colliding with
		// FillRandom's even keys) are inserted charged — the kick chains
		// the spike forces cost measured cycles — then removed uncharged.
		const chunk = 256
		mask := table.L.KeyMask()
		for from := warmup; from < warmup+p.Queries; from += chunk {
			n := min(chunk, warmup+p.Queries-from)
			hits += run(e, from, n)
			burst := make([]uint64, 0, items)
			for i := 0; i < items; i++ {
				key := plan.PressureKey(mask)
				if err := table.InsertCharged(e, key, key); err != nil {
					pressFailed++
					continue
				}
				pressured++
				burst = append(burst, key)
			}
			for _, key := range burst {
				table.Delete(key)
			}
		}
	} else {
		hits = run(e, warmup, p.Queries)
	}
	hostSeconds := obs.WallSince(hostStart).Seconds()

	cycles := e.Cycles()
	seconds := cycles / (p.Arch.Frequency(width) * 1e9)
	m := Measurement{
		Hits:               hits,
		CyclesPerLookup:    cycles / float64(p.Queries),
		LookupsPerSec:      float64(p.Queries) / seconds,
		MemCyclesPerLookup: e.MemCycles() / float64(p.Queries),
		OpCycles:           make(map[arch.OpClass]float64),
		PressureInserted:   pressured,
		PressureFailed:     pressFailed,
		HostSeconds:        hostSeconds,
	}
	if hostSeconds > 0 {
		m.SimSpeed = float64(p.Queries) / hostSeconds / 1e6
	}
	e.ForEachOpCycle(func(op arch.OpClass, cy float64) {
		m.OpCycles[op] = cy / float64(p.Queries)
	})
	if st, ok := e.Cache.LevelStats("L1D"); ok {
		m.L1HitRate = st.HitRate()
	}
	m.DRAMPerLookup = float64(e.Cache.DRAMAccesses()) / float64(p.Queries)
	for _, name := range e.Cache.Levels() {
		if st, ok := e.Cache.LevelStats(name); ok {
			m.CacheLevels = append(m.CacheLevels, LevelStat{Name: name, Hits: st.Hits, Misses: st.Misses})
		}
	}
	m.CacheLevels = append(m.CacheLevels, LevelStat{Name: "DRAM", Hits: e.Cache.DRAMAccesses()})
	if vc != nil {
		// One span per measured variant on the cycle axis: [0, cycles].
		vc.Span("measure", 0, cycles, map[string]interface{}{
			"queries": p.Queries, "hits": hits, "width": width,
			"cycles_per_lookup": m.CyclesPerLookup,
		})
		if p.RecordSimSpeed {
			// Opt-in only: sim-speed is wall-clock-derived, so the gauge
			// must never appear in deterministic (golden) metrics output.
			vc.Gauge("sim_speed_mlookups_per_s").Set(m.SimSpeed)
		}
	}
	p.Heartbeat.Tick(cycles)
	return m
}
