// Command simdhtbench is the SimdHT-Bench harness: it reproduces every
// micro-benchmark table and figure of the paper's evaluation (Section V)
// and exposes the validation engine for arbitrary configurations.
//
// Usage:
//
//	simdhtbench [flags] <artifact|command>...
//
// Flags go before the arguments. Every argument is checked before the
// first runs: an unknown one, or a flag written after an argument, exits 1
// naming it, with nothing run.
//
// An artifact is a table or figure of experiments.MicroArtifacts: the
// paper's, by name or case-study alias, then the extension studies. `all`,
// the default, prints the paper's artifacts in order.
//
// The plain commands take their own flags: `validate` prints the viable
// SIMD design choices for -n/-m/-keybits/-valbits/-size on the chosen
// -cpu, `run` measures them, `advise` ranks the layouts' best designs,
// `record` writes the -pattern query stream to -keytrace and `selftest`
// checks every lookup variant against the native reference.
//
// Observability: -trace out.json writes a Chrome trace_event file (virtual
// time: engine cycles) and -metrics out.csv writes the metrics registry;
// both are byte-identical across runs at any -parallel setting. -profile
// cycles emits the deterministic cycle account — folded flamegraph stacks
// on stdout, breakdown and report tables on stderr. -manifest run.json
// writes a run manifest (config, seeds, artifact digests, metrics, account)
// for cmd/obsdiff to compare. -heartbeat N prints stderr liveness every N
// measured variants. -keytrace records/replays key traces (the flag was
// previously named -trace).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"simdhtbench/cmd/internal/cli"
	"simdhtbench/internal/arch"
	"simdhtbench/internal/core"
	"simdhtbench/internal/experiments"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/report"
	"simdhtbench/internal/workload"
)

func main() {
	def := experiments.DefaultOptions()
	h := cli.New(cli.Tool{
		Name:          "simdhtbench",
		Seed:          def.Seed,
		SeedHelp:      "base random seed",
		TraceHelp:     "write a Chrome trace_event JSON file (virtual time = engine cycles)",
		ProfileHelp:   "emit the deterministic cycle account: 'cycles' writes folded flamegraph stacks to stdout (pipe into flamegraph.pl) and the breakdown table to stderr; experiment tables move to stderr",
		ManifestHelp:  "write a structured run manifest (JSON: config, seeds, artifact digests, metric snapshot, cycle account) to this file",
		HeartbeatHelp: "print a stderr progress line every N measured variants (0 = off; wall-derived, never in deterministic output)",
		FaultsHelp:    "run: fault-injection spec; 'pressure=<items>@<period>' injects charged insert-pressure bursts into the measured window",
		FaultSeedHelp: "fault plan RNG seed (0 = -seed)",
	})
	var (
		cpu     = flag.String("cpu", "skylake-a", "CPU model: skylake-a, skylake-b, cascadelake, icelake, zen2")
		queries = flag.Int("queries", def.Queries, "measured queries per configuration")

		n        = flag.Int("n", 2, "validate/run: number of hash functions (N)")
		m        = flag.Int("m", 4, "validate/run: slots per bucket (m; 1 = non-bucketized)")
		keyBits  = flag.Int("keybits", 32, "validate/run: key width in bits (16/32/64)")
		valBits  = flag.Int("valbits", 32, "validate/run: payload width in bits (16/32/64)")
		size     = flag.Int("size", 1<<20, "validate/run: hash table size in bytes")
		pattern  = flag.String("pattern", "uniform", "run: access pattern (uniform|skewed)")
		hitRate  = flag.Float64("hitrate", 0.9, "run: query hit rate")
		lf       = flag.Float64("lf", 0.9, "run: target load factor")
		cores    = flag.Int("cores", 0, "run: concurrent cores (0 = all)")
		keytrace = flag.String("keytrace", "", "run: replay a recorded key trace file instead of a generated pattern; record: output path")
		brk      = flag.Bool("breakdown", false, "run: also print the per-op cycle breakdown of each variant")

		simspeed = flag.Bool("simspeed", false, "run: print each variant's simulator throughput (simulated Mlookups per host second) to stderr and publish it as an obs gauge; wall-clock-derived, never part of deterministic output")
	)
	flag.Parse()
	h.Start()

	model, err := arch.ByName(*cpu)
	h.Check(err)
	pat, err := workload.ParsePattern(*pattern)
	h.Check(err)
	inv := &experiments.Invocation{Options: experiments.Options{
		Queries:   *queries,
		Seed:      h.Seed,
		Parallel:  h.Parallel,
		OnSweep:   h.OnSweep(),
		Heartbeat: h.Heartbeat,
		Obs:       h.Col,
	}}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	// archName is the manifest's arch: the -cpu model once validate, run or
	// advise, which simulate on it, is asked for. Artifacts and selftest fix
	// their own, and record simulates nothing.
	archName := ""
	// Every argument resolves to an action before any runs, so an unknown
	// name (or a flag written after a command) fails with nothing run.
	var actions []func()
	for _, cmd := range args {
		if arts, ok := experiments.MicroArtifacts.Resolve(cmd); ok {
			for _, a := range arts {
				actions = append(actions, func() { h.Check(a.Print(inv, h)) })
			}
			continue
		}
		switch cmd {
		case "validate":
			archName = model.Name
			actions = append(actions, func() {
				rows, err := core.ValidateGrid(model, [][2]int{{*n, *m}}, *keyBits, *valBits, *size, model.Widths)
				h.Check(err)
				fmt.Fprint(h.Out, core.FormatListing(model, *keyBits, *valBits, model.Widths, rows))
			})
		case "run":
			archName = model.Name
			actions = append(actions, func() {
				spec, err := fault.ParseSpec(h.Faults)
				h.Check(err)
				params := core.Params{
					Arch: model, N: *n, M: *m, KeyBits: *keyBits, ValBits: *valBits,
					TableBytes: *size, LoadFactor: *lf, HitRate: *hitRate,
					Pattern: pat, Queries: *queries, Cores: *cores, Seed: h.Seed,
					Obs:    h.Col.Scope("config", "run"),
					Faults: spec, FaultSeed: h.FaultSeed,
					RecordSimSpeed: *simspeed,
					Heartbeat:      h.Heartbeat,
				}
				if *keytrace != "" {
					f, err := os.Open(*keytrace)
					h.Check(err)
					keys, err := workload.ReadTrace(f)
					f.Close()
					h.Check(err)
					params.Trace = keys
				}
				r, err := core.Run(params)
				h.Check(err)
				h.Emit(resultTable(r))
				if *brk {
					h.Emit(breakdownTable(r))
				}
				if *simspeed {
					// Stderr only: stdout carries the deterministic tables.
					simSpeedTable(r).Fprint(os.Stderr)
					fmt.Fprintln(os.Stderr)
				}
			})
		case "advise":
			archName = model.Name
			actions = append(actions, func() {
				recs, err := core.Advise(core.AdviseRequest{
					Params: core.Params{
						Arch: model, KeyBits: *keyBits, ValBits: *valBits,
						TableBytes: *size, HitRate: *hitRate, Pattern: pat,
						Queries: *queries, Seed: h.Seed,
						Obs: h.Col, Heartbeat: h.Heartbeat,
					},
					MinLoadFactor: *lf,
				})
				h.Check(err)
				t := report.NewTable(
					fmt.Sprintf("Design guidance: (K,V)=(%d,%d)b, %s HT, %s pattern, LF >= %.2f on %s",
						*keyBits, *valBits, sizeArg(*size), pat, *lf, model.Name),
					"#", "Layout", "Best design", "M lookups/s/core", "Speedup", "Max LF")
				for i, r := range recs {
					design := r.Best.Choice.String()
					if r.BestIsScalar {
						design = "scalar"
					}
					t.AddRow(i+1, r.Layout.String(), design,
						fmt.Sprintf("%.1f", r.Best.LookupsPerSec/1e6),
						fmt.Sprintf("%.2fx", r.Speedup),
						fmt.Sprintf("%.2f", r.MaxLF))
				}
				h.Emit(t)
			})
		case "selftest":
			actions = append(actions, func() {
				checked, err := core.SelfTest(50, h.Seed)
				h.Check(err)
				fmt.Fprintf(h.Out, "selftest: %d (configuration, variant) combinations agree with the native reference\n", checked)
			})
		case "record":
			if *keytrace == "" {
				h.Fatal(fmt.Errorf("record requires -keytrace <output path>"))
			}
			actions = append(actions, func() {
				// Record the configured pattern's query stream to -keytrace for
				// later replay (a seed-stable capture of the workload).
				h.Check(inv.Options.Validate())
				stored := make([]uint64, 0, 1<<16)
				for i := uint64(2); len(stored) < 1<<16; i += 2 {
					stored = append(stored, i)
				}
				gen, err := workload.New(stored, workload.Config{
					Pattern: pat, HitRate: *hitRate, KeyBits: *keyBits, Seed: h.Seed,
				})
				h.Check(err)
				f, err := os.Create(*keytrace)
				h.Check(err)
				err = workload.WriteTrace(f, workload.Keys(gen, *queries))
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				h.Check(err)
				fmt.Fprintf(h.Out, "recorded %d %s queries to %s\n", *queries, pat, *keytrace)
			})
		default:
			h.Fatal(fmt.Errorf("unknown experiment %q (want %s, validate, run, advise, record or selftest)",
				cmd, strings.Join(experiments.MicroArtifacts.Names(), ", ")))
		}
	}
	for _, run := range actions {
		run()
	}
	h.Finish(archName)
}

// simSpeedTable renders the per-variant simulator throughput of a run. The
// values derive from obs.WallNow and vary run to run, so the table goes to
// stderr and never into golden-checked output.
func simSpeedTable(r *core.Result) *report.Table {
	t := report.NewTable("Simulator throughput (wall-clock; profiling only)",
		"Variant", "Host ms", "Sim Mlookups/s")
	row := func(name string, m core.Measurement) {
		t.AddRow(name,
			fmt.Sprintf("%.1f", m.HostSeconds*1e3),
			fmt.Sprintf("%.2f", m.SimSpeed))
	}
	row("Scalar", r.Scalar)
	if r.AMAC != nil {
		row("AMAC", *r.AMAC)
	}
	for _, v := range r.Vector {
		row(v.Choice.String(), v)
	}
	return t
}

func resultTable(r *core.Result) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("%s | LF=%.2f (%d items)", r.Layout, r.AchievedLF, r.Inserted),
		"Variant", "M lookups/s/core", "Cycles/lookup", "Speedup", "L1 hit", "DRAM/lookup")
	t.AddRow("Scalar",
		fmt.Sprintf("%.1f", r.Scalar.LookupsPerSec/1e6),
		fmt.Sprintf("%.1f", r.Scalar.CyclesPerLookup),
		"1.00x",
		fmt.Sprintf("%.2f", r.Scalar.L1HitRate),
		fmt.Sprintf("%.2f", r.Scalar.DRAMPerLookup))
	for _, v := range r.Vector {
		t.AddRow(v.Choice.String(),
			fmt.Sprintf("%.1f", v.LookupsPerSec/1e6),
			fmt.Sprintf("%.1f", v.CyclesPerLookup),
			fmt.Sprintf("%.2fx", r.Speedup(v)),
			fmt.Sprintf("%.2f", v.L1HitRate),
			fmt.Sprintf("%.2f", v.DRAMPerLookup))
	}
	return t
}

// breakdownTable decomposes each variant's cycles/lookup into the memory
// share and the top instruction classes.
func breakdownTable(r *core.Result) *report.Table {
	t := report.NewTable("Cycle breakdown per lookup (memory vs instruction classes, cache hits/misses)",
		"Variant", "Total", "Memory", "Top instruction classes", "Cache hits/misses")
	row := func(name string, m core.Measurement) {
		type kv struct {
			op arch.OpClass
			cy float64
		}
		var ops []kv
		//lint:ignore determlint order is canonicalized by the total sort below before anything is rendered
		for op, cy := range m.OpCycles {
			ops = append(ops, kv{op, cy})
		}
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].cy != ops[j].cy {
				return ops[i].cy > ops[j].cy
			}
			return ops[i].op < ops[j].op
		})
		var parts []string
		for i, o := range ops {
			if i >= 4 || o.cy < 0.05 {
				break
			}
			parts = append(parts, fmt.Sprintf("%v=%.1f", o.op, o.cy))
		}
		var levels []string
		for _, l := range m.CacheLevels {
			if l.Name == "DRAM" {
				levels = append(levels, fmt.Sprintf("DRAM %d", l.Hits))
				continue
			}
			levels = append(levels, fmt.Sprintf("%s %d/%d", l.Name, l.Hits, l.Misses))
		}
		t.AddRow(name,
			fmt.Sprintf("%.1f", m.CyclesPerLookup),
			fmt.Sprintf("%.1f", m.MemCyclesPerLookup),
			strings.Join(parts, " "),
			strings.Join(levels, " "))
	}
	row("Scalar", r.Scalar)
	for _, v := range r.Vector {
		row(v.Choice.String(), v)
	}
	return t
}

func sizeArg(sz int) string {
	if sz >= 1<<20 && sz%(1<<20) == 0 {
		return fmt.Sprintf("%dMB", sz>>20)
	}
	return fmt.Sprintf("%dKB", sz>>10)
}
