// Command kvsbench reproduces the key-value-store validation of Section VI
// (Fig. 11): a memslap-style Multi-Get workload against an RDMA-Memcached-
// style server running the MemC3 baseline or one of the two SIMD-aware
// index backends, over a simulated InfiniBand EDR fabric.
//
// Usage:
//
//	kvsbench [flags] <artifact|single>...
//
// Flags go before the arguments. Every argument is checked before the
// first runs: an unknown one, or a flag written after an argument, exits 1
// naming it, with nothing simulated.
//
// An artifact is a table of experiments.KVSArtifacts: Fig. 11a and 11b,
// then the extension studies. `all`, the default, prints Fig. 11a and 11b
// from one sweep. `single` runs one backend/batch combination (see -backend
// / -batch) and prints the full result line.
//
// The fleet study runs R-way replicated Multi-Gets with open-loop
// arrivals, quorum writes, replica failover, read-repair and fault-driven
// membership churn (rebalance storms), swept over -fleet-sizes. Without
// -faults it uses a built-in rolling-failure plan.
//
// The overload study measures the fleet's closed-loop capacity, then
// sweeps open-loop offered load across -overload-mults multiples of it
// twice — with the overload controls off (timeout/retry only, the
// configuration that collapses) and on (admission-bounded queues with
// queue deadlines, retry budgets and hedged reads, derived from the
// measured capacity). It derives its own fault specs, so it rejects
// -faults.
//
// Fault injection: -faults arms a deterministic fault plan (message
// drop/dup/delay on the fabric, crash/slowdown windows and insert pressure
// on the server, timeout/retry/degradation on the client) for every study
// but the overload study, and the fault sweep measures goodput against
// injected loss rates. All fault timing is virtual, so faulty runs stay
// byte-identical across runs and -parallel settings.
//
// Observability: -trace out.json writes a Chrome trace_event file (virtual
// time: the discrete-event simulation clock, in microseconds) and -metrics
// out.csv writes the metrics registry; both are byte-identical across runs
// at any -parallel setting. -profile cycles emits the deterministic time
// account (unit: virtual µs, including net hops and server queueing) —
// folded flamegraph stacks on stdout, breakdown and report tables on
// stderr. -manifest run.json writes a run manifest for cmd/obsdiff to
// compare. -heartbeat N prints stderr liveness every N simulation events.
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"simdhtbench/cmd/internal/cli"
	"simdhtbench/internal/experiments"
	"simdhtbench/internal/fault"
)

func main() {
	def := experiments.DefaultKVSOptions()
	defFleet := experiments.DefaultFleetOptions()
	defOverload := experiments.DefaultOverloadOptions()
	h := cli.New(cli.Tool{
		Name:          "kvsbench",
		Seed:          def.Seed,
		SeedHelp:      "random seed",
		TraceHelp:     "write a Chrome trace_event JSON file (virtual time = DES clock)",
		ProfileHelp:   "emit the deterministic time account: 'cycles' writes folded flamegraph stacks (unit: virtual microseconds) to stdout and the breakdown table to stderr; report tables move to stderr",
		ManifestHelp:  "write a structured run manifest (JSON: config, seeds, artifact digests, metric snapshot, time account) to this file",
		HeartbeatHelp: "print a stderr progress line every N dispatched simulation events (0 = off; wall-derived, never in deterministic output)",
		FaultsHelp:    "fault-injection spec, e.g. 'drop=0.1,crash=20us:10us,timeout=10us,retries=3,backoff=5us' (empty = no faults)",
		FaultSeedHelp: "fault plan RNG seed (0 = -seed); all fault timing is virtual, so output stays deterministic",
	})
	var (
		items    = flag.Int("items", def.Items, "stored key-value items (paper: 2M)")
		workers  = flag.Int("workers", def.Workers, "server worker threads")
		clients  = flag.Int("clients", def.Clients, "memslap client threads")
		requests = flag.Int("requests", def.Requests, "measured Multi-Gets per configuration")
		batches  = flag.String("batches", joinList(def.Batches), "comma-separated Multi-Get sizes")
		backend  = flag.String("backend", "vertical", "single: memc3|horizontal|vertical")
		batch    = flag.Int("batch", 16, "single: Multi-Get size")

		fleetSizes  = flag.String("fleet-sizes", joinList(defFleet.FleetSizes), "fleet: comma-separated server counts")
		replication = flag.Int("replication", defFleet.Replication, "fleet: replica-set width R (clamped to each fleet size)")
		arrivalRate = flag.Float64("arrival-rate", defFleet.ArrivalRate, "fleet: aggregate open-loop Multi-Get arrival rate (requests/s of virtual time)")
		writeFrac   = flag.Float64("write-frac", defFleet.WriteFraction, "fleet: fraction of requests issued as quorum writes")

		overloadServers = flag.Int("overload-servers", defOverload.Servers, "overload: fleet width")
		overloadMults   = flag.String("overload-mults", joinList(defOverload.Multipliers), "overload: comma-separated offered-load multipliers of measured capacity")
	)
	flag.Parse()
	h.Start()

	spec, err := fault.ParseSpec(h.Faults)
	h.Check(err)
	batchSizes, err := parseList(*batches, "batch size", strconv.Atoi)
	h.Check(err)
	opts := experiments.KVSOptions{
		Items:     *items,
		Workers:   *workers,
		Clients:   *clients,
		Requests:  *requests,
		Batches:   batchSizes,
		Seed:      h.Seed,
		Parallel:  h.Parallel,
		Faults:    spec,
		FaultSeed: h.FaultSeed,
		OnSweep:   h.OnSweep(),
		Obs:       h.Col,
		Heartbeat: h.Heartbeat,
	}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	sizes, err := parseList(*fleetSizes, "fleet size", strconv.Atoi)
	h.Check(err)
	mults, err := parseList(*overloadMults, "load multiplier", parseFloat)
	h.Check(err)
	inv := &experiments.Invocation{
		KVS: opts,
		Fleet: experiments.FleetOptions{KVSOptions: opts, FleetSizes: sizes,
			Replication: *replication, ArrivalRate: *arrivalRate, WriteFraction: *writeFrac},
		Overload: experiments.OverloadOptions{KVSOptions: opts, Servers: *overloadServers, Multipliers: mults},
	}
	// Every argument resolves to an action before any runs, so an unknown
	// name (or a flag written after a command) fails with nothing simulated.
	var actions []func()
	for _, cmd := range args {
		if arts, ok := experiments.KVSArtifacts.Resolve(cmd); ok {
			for _, a := range arts {
				actions = append(actions, func() { h.Check(a.Print(inv, h)) })
			}
			continue
		}
		if cmd != "single" {
			h.Fatal(fmt.Errorf("unknown command %q (want %s or single)",
				cmd, strings.Join(experiments.KVSArtifacts.Names(), ", ")))
		}
		actions = append(actions, func() {
			res, err := experiments.RunKVS(*backend, *batch, opts)
			h.Check(err)
			fmt.Fprintln(h.Out, res)
			fmt.Fprintf(h.Out, "  phases per batch: pre=%.2fus lookup=%.2fus post=%.2fus (util %.2f)\n",
				res.Breakdown.Pre*1e6, res.Breakdown.Lookup*1e6, res.Breakdown.Post*1e6, res.WorkerUtil)
		})
	}
	for _, run := range actions {
		run()
	}
	h.Finish("")
}

// parseList parses a comma-separated list of numbers; what names the
// element kind in the error. The studies validate the values.
func parseList[T int | float64](s, what string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("invalid %s %q", what, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// joinList renders a list default in the form parseList reads.
func joinList[T int | float64](vs []T) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
