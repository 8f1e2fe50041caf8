package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/core"
	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/obs/prof"
	"simdhtbench/internal/workload"
)

// microConfig sizes a table-level workload: the calls core.Run (read-only)
// and core.RunMixed (updateFraction > 0) make, driven from outside.
type microConfig struct {
	model          func() *arch.Model
	n, m           int // hash functions, slots per bucket
	keyBits        int
	valBits        int
	tableBytes     int
	loadFactor     float64
	chargedFrom    float64 // load factor where the fill switches to charged inserts; 0 = none
	pattern        workload.Pattern
	hitRate        float64
	queries        int // measured operations per variant
	warmup         int // uncharged operations per variant before measuring
	updateFraction float64
}

// microWorkload is the state one setup builds: a filled table, the
// generated operation stream, and the variants to measure on it.
type microWorkload struct {
	cfg  microConfig
	seed int64

	model    *arch.Model
	table    *cuckoo.Table
	keys     []uint64
	isUpdate []bool
	stream   *cuckoo.Stream
	res      *cuckoo.ResultBuf
	found    []bool
	variants []variant

	setupSim simStats
}

// variant is one lookup design: the scalar baseline or a viable SIMD choice.
type variant struct {
	name     string
	template string // scalar, horizontal or vertical
	width    int    // licensed vector width
	lookup   func(e *engine.Engine, from, n int, found []bool) int
}

func (w *microWorkload) consumesSetup() bool { return false }

func (w *microWorkload) release() { *w = microWorkload{cfg: w.cfg, seed: w.seed} }

// setup builds the table, fills it, and generates every operation the
// passes will run. Everything is derived from the seed.
func (w *microWorkload) setup(tr *tracer) error {
	c := w.cfg
	w.model = c.model()
	w.setupSim = simStats{}

	tr.begin("cuckoo.new")
	layout, err := cuckoo.LayoutForBytes(c.n, c.m, c.keyBits, c.valBits, c.tableBytes)
	if err != nil {
		return err
	}
	space := mem.NewAddressSpace()
	table, err := cuckoo.New(space, layout, w.seed)
	tr.end(1)
	if err != nil {
		return err
	}
	w.table = table

	rng := rand.New(rand.NewSource(w.seed + 1))
	fillTo := c.loadFactor
	if c.chargedFrom > 0 {
		fillTo = c.chargedFrom
	}
	tr.begin("cuckoo.fill")
	stored, _ := table.FillRandom(fillTo, rng)
	tr.end(len(stored))
	if len(stored) == 0 {
		return fmt.Errorf("table fill produced no items for %s", layout)
	}
	if c.chargedFrom > 0 {
		if stored, err = w.chargedTopUp(tr, stored, rng); err != nil {
			return err
		}
	}
	w.setupSim.add("fill.items", float64(len(stored)))
	w.setupSim.add("fill.lf", table.LoadFactor())

	tr.begin("workload.gen")
	gen, err := workload.New(stored, workload.Config{
		Pattern: c.pattern, HitRate: c.hitRate, KeyBits: c.keyBits, Seed: w.seed + 2,
	})
	if err != nil {
		tr.end(0)
		return err
	}
	total := c.warmup + c.queries
	w.keys = make([]uint64, total)
	w.isUpdate = make([]bool, total)
	opRng := rand.New(rand.NewSource(w.seed + 3))
	for i := range w.keys {
		if c.updateFraction > 0 && opRng.Float64() < c.updateFraction {
			w.keys[i] = stored[opRng.Intn(len(stored))]
			w.isUpdate[i] = true
		} else {
			w.keys[i] = gen.Next()
		}
	}
	tr.end(total)

	tr.begin("cuckoo.stream")
	w.stream = cuckoo.NewStream(space, w.keys, c.keyBits)
	w.res = cuckoo.NewResultBuf(space, total, c.valBits)
	w.found = make([]bool, c.queries)
	tr.end(total)

	// Every update writes the same new payload, so applying them once now
	// gives each lookup in every pass exactly one right answer.
	tr.begin("cuckoo.update_apply")
	updates := 0
	for i, k := range w.keys {
		if w.isUpdate[i] {
			if err := table.Insert(k, updatePayload(k, c.valBits)); err != nil {
				tr.end(updates)
				return fmt.Errorf("applying update of key %#x: %w", k, err)
			}
			updates++
		}
	}
	tr.end(updates)

	w.variants = w.variantsFor(layout)
	return nil
}

// updatePayload is the payload an update writes, as core.RunMixed writes it.
func updatePayload(key uint64, valBits int) uint64 {
	return cuckoo.PayloadFor(key+1, valBits)
}

// chargedTopUp fills the table from cfg.chargedFrom to cfg.loadFactor with
// charged inserts of fresh keys, so the eviction (kick-chain) path runs
// with its costs on a simulated core.
func (w *microWorkload) chargedTopUp(tr *tracer, stored []uint64, rng *rand.Rand) ([]uint64, error) {
	c, t := w.cfg, w.table
	target := int(c.loadFactor * float64(t.L.Slots()))
	e := engine.New(w.model, w.model.Cores)
	var inserts, bfsNodes, relocations int
	tr.begin("cuckoo.insert")
	for t.Count() < target {
		key := (rng.Uint64() & t.L.KeyMask()) &^ 1
		if key == 0 {
			continue
		}
		if _, present := t.Lookup(key); present {
			continue
		}
		if err := t.InsertCharged(e, key, cuckoo.PayloadFor(key, c.valBits)); err != nil {
			tr.end(inserts)
			if errors.Is(err, cuckoo.ErrFull) {
				return nil, fmt.Errorf("charged fill: table full at load factor %.4f", t.LoadFactor())
			}
			return nil, err
		}
		nodes, moves := t.LastEvictionStats()
		bfsNodes += nodes
		relocations += moves
		inserts++
		stored = append(stored, key)
	}
	tr.end(inserts)
	w.setupSim.add("insert.ops", float64(inserts))
	w.setupSim.add("insert.cycles", e.Cycles())
	w.setupSim.add("insert.bfs_nodes", float64(bfsNodes))
	w.setupSim.add("insert.relocations", float64(relocations))
	return stored, nil
}

// variantsFor lists the scalar baseline and every viable SIMD design, as
// core.Run enumerates them.
func (w *microWorkload) variantsFor(layout cuckoo.Layout) []variant {
	t, s, r := w.table, w.stream, w.res
	vs := []variant{{
		name: "scalar", template: "scalar", width: arch.WidthScalar,
		lookup: func(e *engine.Engine, from, n int, found []bool) int {
			return t.LookupScalarBatch(e, s, from, n, r, found)
		},
	}}
	for _, c := range core.EnumerateChoices(w.model, layout, w.model.Widths, nil) {
		v := variant{name: c.String(), width: c.Width}
		switch c.Approach {
		case core.Horizontal:
			cfg := cuckoo.HorizontalConfig{Width: c.Width, BucketsPerVec: c.BucketsPerVec}
			v.template = "horizontal"
			v.lookup = func(e *engine.Engine, from, n int, found []bool) int {
				return t.LookupHorizontalBatch(e, s, from, n, cfg, r, found)
			}
		default:
			cfg := cuckoo.VerticalConfig{Width: c.Width}
			v.template = "vertical"
			v.lookup = func(e *engine.Engine, from, n int, found []bool) int {
				return t.LookupVerticalBatch(e, s, from, n, cfg, r, found)
			}
		}
		vs = append(vs, v)
	}
	return vs
}

// run executes operations [from, from+n) of the stream on e: contiguous
// lookups as one batch call, each update as a charged insert, exactly as
// core.RunMixed interleaves them. Hit flags land in found (indexed from 0).
func (w *microWorkload) run(tr *tracer, v variant, e *engine.Engine, from, n int, found []bool) int {
	hits := 0
	lookups := func(lo, hi int) {
		if hi <= lo {
			return
		}
		tr.begin("cuckoo.lookup." + v.template)
		hits += v.lookup(e, lo, hi-lo, found[lo-from:hi-from])
		tr.end(hi - lo)
	}
	spanStart := from
	for i := from; i < from+n; i++ {
		if !w.isUpdate[i] {
			continue
		}
		lookups(spanStart, i)
		k := w.keys[i]
		tr.begin("cuckoo.update")
		err := w.table.InsertCharged(e, k, updatePayload(k, w.cfg.valBits))
		tr.end(1)
		if err != nil {
			// The key is stored, so the insert is an in-place overwrite
			// and cannot fail; the output check reports it if it did.
			continue
		}
		spanStart = i + 1
	}
	lookups(spanStart, from+n)
	return hits
}

// pass measures every variant on a fresh simulated core: an uncharged warm-up
// that walks the whole table into the modelled caches and replays the warm-up
// operations (as core.Run does), then the charged measured window, then the
// output check against the table's uncharged Lookup.
func (w *microWorkload) pass(tr *tracer) (passResult, error) {
	c := w.cfg
	pr := passResult{sim: w.setupSim.clone()}

	scratch := make([]bool, c.warmup)
	var ops, cycles, memCycles, hashCycles, gatherCycles, dram float64
	levels := map[string][2]float64{}
	type outcome struct {
		name       string
		throughput float64
		cyclesKey  float64
	}
	var scalar outcome
	var best *outcome
	for _, v := range w.variants {
		tr.begin("bench.variant[" + v.name + "]")
		e := engine.New(w.model, w.model.Cores)
		e.SetCharging(false)
		tr.begin("cache.touch")
		e.Cache.Touch(w.table.Arena.Base(), w.table.Arena.Size())
		tr.end(1)
		tr.begin("bench.warmup")
		w.run(nil, v, e, 0, c.warmup, scratch)
		tr.end(c.warmup)
		e.SetCharging(true)
		e.ResetCycles()
		var pf *prof.Profiler
		if tr != nil {
			pf = prof.NewSet().Profiler("cycles")
			e.SetProfiler(pf)
		}
		w.res.Arena.Zero()

		start := nowSeconds()
		hits := w.run(tr, v, e, c.warmup, c.queries, w.found)
		pr.measureS += nowSeconds() - start
		pr.keys += float64(c.queries)

		tr.begin("bench.check")
		pr.attempted += int64(c.queries)
		pr.failed += w.check()
		tr.end(c.queries)
		tr.end(c.queries)

		cy := e.Cycles()
		simSeconds := cy / (w.model.Frequency(v.width) * 1e9)
		o := outcome{name: v.name, throughput: float64(c.queries) / simSeconds, cyclesKey: cy / float64(c.queries)}
		if v.template == "scalar" {
			scalar = o
		} else if best == nil || o.throughput > best.throughput {
			b := o
			best = &b
		}

		p := "variant[" + v.name + "]."
		pr.sim.add(p+"hits", float64(hits))
		pr.sim.add(p+"cycles", cy)
		pr.sim.add(p+"ops", float64(e.Ops()))
		pr.sim.add(p+"mem_cycles", e.MemCycles())
		pr.sim.add(p+"max_width", float64(e.MaxWidth()))
		e.ForEachOpCycle(func(op arch.OpClass, v float64) {
			pr.sim.add(p+"op["+op.String()+"]", v)
		})
		for _, name := range e.Cache.Levels() {
			st, _ := e.Cache.LevelStats(name)
			pr.sim.add(p+"cache["+name+"].hits", float64(st.Hits))
			pr.sim.add(p+"cache["+name+"].misses", float64(st.Misses))
			l := levels[name]
			levels[name] = [2]float64{l[0] + float64(st.Hits), l[1] + float64(st.Misses)}
		}
		pr.sim.add(p+"dram", float64(e.Cache.DRAMAccesses()))

		ops += float64(e.Ops())
		cycles += cy
		memCycles += e.MemCycles()
		dram += float64(e.Cache.DRAMAccesses())
		if pf != nil {
			h, g, err := phaseCycles(pf)
			if err != nil {
				return passResult{}, err
			}
			hashCycles += h
			gatherCycles += g
		}
	}
	if best == nil {
		best = &scalar
	}
	pr.e2e = map[string]float64{
		"sim_goodput_mkeys_s": best.throughput / 1e6,
		"sim_cycles_per_key":  best.cyclesKey,
	}
	pr.extra = []extraMetric{
		{name: "simd_speedup", unit: "x", value: ratio(best.throughput, scalar.throughput), note: best.name + " over scalar"},
		{name: "sim_cycles_per_key.scalar", unit: "cycles", value: scalar.cyclesKey},
	}
	keys := pr.keys
	pr.layer = map[string]float64{
		"cuckoo.fill_items":            w.setupSim.get("fill.items"),
		"cuckoo.fill_lf":               w.setupSim.get("fill.lf"),
		"cuckoo.insert_bfs_nodes":      ratio(w.setupSim.get("insert.bfs_nodes"), w.setupSim.get("insert.ops")),
		"cuckoo.insert_relocations":    ratio(w.setupSim.get("insert.relocations"), w.setupSim.get("insert.ops")),
		"engine.ops":                   ops,
		"engine.mem_cycle_share":       ratio(memCycles, cycles),
		"engine.gather_cycles_per_key": gatherCycles / keys,
		"engine.hash_cycles_per_key":   hashCycles / keys,
		"cache.dram_fills_per_key":     dram / keys,
	}
	for name, l := range levels {
		pr.layer["cache."+strings.ToLower(name)+"_hit_rate"] = ratio(l[0], l[0]+l[1])
	}
	return pr, nil
}

// check compares the measured window's outputs with the table's uncharged
// Lookup: every lookup's hit flag and payload, and every update read back.
// It returns the number of wrong operations.
func (w *microWorkload) check() int64 {
	var failed int64
	c := w.cfg
	for q := 0; q < c.queries; q++ {
		i := c.warmup + q
		k := w.keys[i]
		want, ok := w.table.Lookup(k)
		if w.isUpdate[i] {
			if !ok || want != updatePayload(k, c.valBits) {
				failed++
			}
			continue
		}
		if w.found[q] != ok || (ok && w.res.Get(i) != want) {
			failed++
		}
	}
	return failed
}

// phaseCycles reads the hash and gather phases' cycles from a variant's
// cycle-account profiler (folded stacks: "phase;...;leaf value").
func phaseCycles(p *prof.Profiler) (hash, gather float64, err error) {
	var b strings.Builder
	if err := p.WriteFolded(&b); err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		stack, val := line[:cut], line[cut+1:]
		var v float64
		if _, err := fmt.Sscan(val, &v); err != nil {
			return 0, 0, fmt.Errorf("profiler line %q: %w", line, err)
		}
		phase, _, _ := strings.Cut(stack, ";")
		switch phase {
		case "hash":
			hash += v
		case "gather":
			gather += v
		}
	}
	return hash, gather, nil
}
