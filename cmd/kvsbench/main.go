// Command kvsbench reproduces the key-value-store validation of Section VI
// (Fig. 11): a memslap-style Multi-Get workload against an RDMA-Memcached-
// style server running the MemC3 baseline or one of the two SIMD-aware
// index backends, over a simulated InfiniBand EDR fabric.
//
// Usage:
//
//	kvsbench [flags] [fig11a|fig11b|etc|cluster|fleet|overload|fault-sweep|single|all]
//
// `single` runs one backend/batch combination (see -backend / -batch) and
// prints the full result line.
//
// `fleet` (also reachable as `kvsbench -fleet`) runs the fleet-scale
// replication study: R-way replicated Multi-Gets with open-loop arrivals,
// quorum writes, replica failover, read-repair and fault-driven membership
// churn (rebalance storms), swept over -fleet-sizes. Without -faults it uses
// a built-in rolling-failure plan.
//
// `overload` (also reachable as `kvsbench -overload`) runs the metastable-
// overload study: it measures the fleet's closed-loop capacity, then sweeps
// open-loop offered load across -overload-mults multiples of it twice —
// with the overload controls off (timeout/retry only, the configuration
// that collapses) and on (admission-bounded queues with queue deadlines,
// retry budgets and hedged reads, derived from the measured capacity).
//
// Fault injection: -faults arms a deterministic fault plan (message
// drop/dup/delay on the fabric, crash/slowdown windows and insert pressure
// on the server, timeout/retry/degradation on the client) and `fault-sweep`
// measures goodput against injected loss rates. All fault timing is
// virtual, so faulty runs stay byte-identical across runs and -parallel
// settings.
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
	h := cli.New(cli.Tool{
		Name:          "kvsbench",
		Seed:          7,
		SeedHelp:      "random seed",
		TraceHelp:     "write a Chrome trace_event JSON file (virtual time = DES clock)",
		ProfileHelp:   "emit the deterministic time account: 'cycles' writes folded flamegraph stacks (unit: virtual microseconds) to stdout and the breakdown table to stderr; report tables move to stderr",
		ManifestHelp:  "write a structured run manifest (JSON: config, seeds, artifact digests, metric snapshot, time account) to this file",
		HeartbeatHelp: "print a stderr progress line every N dispatched simulation events (0 = off; wall-derived, never in deterministic output)",
		FaultsHelp:    "fault-injection spec, e.g. 'drop=0.1,crash=20us:10us,timeout=10us,retries=3,backoff=5us' (empty = no faults)",
		FaultSeedHelp: "fault plan RNG seed (0 = -seed); all fault timing is virtual, so output stays deterministic",
	})
	var (
		items      = flag.Int("items", 200000, "stored key-value items (paper: 2M)")
		workers    = flag.Int("workers", 26, "server worker threads")
		clients    = flag.Int("clients", 26, "memslap client threads")
		requests   = flag.Int("requests", 3000, "measured Multi-Gets per configuration")
		batches    = flag.String("batches", "16,64", "comma-separated Multi-Get sizes")
		backend    = flag.String("backend", "vertical", "single: memc3|horizontal|vertical")
		batch      = flag.Int("batch", 16, "single: Multi-Get size")
		simWorkers = flag.Int("simworkers", 1, "cluster/fleet/overload: host workers advancing one simulation's partitions in parallel (1 = serial); output is identical at every setting")

		fleetCmd    = flag.Bool("fleet", false, "run the fleet-scale replication study (same as the `fleet` command)")
		fleetSizes  = flag.String("fleet-sizes", "3,8,16,32,64", "fleet: comma-separated server counts")
		replication = flag.Int("replication", 3, "fleet: replica-set width R (clamped to each fleet size); overload: replica width (default 2 there)")
		arrivalRate = flag.Float64("arrival-rate", 2e5, "fleet: aggregate open-loop Multi-Get arrival rate (requests/s of virtual time)")
		writeFrac   = flag.Float64("write-frac", 0.05, "fleet: fraction of requests issued as quorum writes")

		overloadCmd     = flag.Bool("overload", false, "run the metastable-overload study (same as the `overload` command)")
		overloadServers = flag.Int("overload-servers", 4, "overload: fleet width")
		overloadMults   = flag.String("overload-mults", "0.5,0.75,1,1.5,2", "overload: comma-separated offered-load multipliers of measured capacity")
	)
	flag.Parse()
	h.Start()

	spec, err := fault.ParseSpec(h.Faults)
	h.Check(err)
	batchSizes, err := parseList(*batches, "batch size", strconv.Atoi)
	h.Check(err)
	opts := experiments.KVSOptions{
		Items:      *items,
		Workers:    *workers,
		Clients:    *clients,
		Requests:   *requests,
		Batches:    batchSizes,
		Seed:       h.Seed,
		Parallel:   h.Parallel,
		SimWorkers: *simWorkers,
		Faults:     spec,
		FaultSeed:  h.FaultSeed,
		OnSweep:    h.OnSweep(),
		Obs:        h.Col,
		Heartbeat:  h.Heartbeat,
	}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	if *fleetCmd {
		args = append([]string{"fleet"}, args...)
		if len(args) == 2 && args[1] == "all" && flag.NArg() == 0 {
			args = args[:1] // bare `kvsbench -fleet` runs only the fleet study
		}
	}
	if *overloadCmd {
		args = append([]string{"overload"}, args...)
		if len(args) == 2 && args[1] == "all" && flag.NArg() == 0 {
			args = args[:1] // bare `kvsbench -overload` runs only the overload study
		}
	}
	sizes, err := parseList(*fleetSizes, "batch size", strconv.Atoi)
	h.Check(err)
	mults, err := parseList(*overloadMults, "load multiplier", parseFloat)
	h.Check(err)
	fleetOpts := experiments.FleetOptions{
		KVSOptions:    opts,
		FleetSizes:    sizes,
		Replication:   *replication,
		ArrivalRate:   *arrivalRate,
		WriteFraction: *writeFrac,
	}
	overloadRepl := *replication
	if overloadRepl > 2 && !isFlagSet("replication") {
		overloadRepl = 0 // overload default R=2 unless -replication given
	}
	overloadOpts := experiments.OverloadOptions{
		KVSOptions:  opts,
		Servers:     *overloadServers,
		Replication: overloadRepl,
		Multipliers: mults,
	}
	for _, cmd := range args {
		switch cmd {
		case "all":
			t, err := experiments.Fig11a(opts)
			h.Check(err)
			h.Emit(t)
			t, err = experiments.Fig11b(opts)
			h.Check(err)
			h.Emit(t)
		case "fig11a":
			t, err := experiments.Fig11a(opts)
			h.Check(err)
			h.Emit(t)
		case "fig11b":
			t, err := experiments.Fig11b(opts)
			h.Check(err)
			h.Emit(t)
		case "etc":
			t, err := experiments.ETCStudy(opts)
			h.Check(err)
			h.Emit(t)
		case "cluster":
			t, err := experiments.ClusterStudy(opts)
			h.Check(err)
			h.Emit(t)
		case "fleet":
			t, err := experiments.FleetStudy(fleetOpts)
			h.Check(err)
			h.Emit(t)
		case "overload":
			t, err := experiments.OverloadStudy(overloadOpts)
			h.Check(err)
			h.Emit(t)
		case "fault-sweep":
			t, err := experiments.FaultSweep(opts)
			h.Check(err)
			h.Emit(t)
		case "single":
			res, err := experiments.RunKVS(*backend, *batch, opts)
			h.Check(err)
			fmt.Fprintln(h.Out, res)
			fmt.Fprintf(h.Out, "  phases per batch: pre=%.2fus lookup=%.2fus post=%.2fus (util %.2f)\n",
				res.Breakdown.Pre*1e6, res.Breakdown.Lookup*1e6, res.Breakdown.Post*1e6, res.WorkerUtil)
		default:
			h.Fatal(fmt.Errorf("unknown command %q (want fig11a, fig11b, etc, cluster, fleet, overload, fault-sweep, single, all)", cmd))
		}
	}
	h.Finish("")
}

// isFlagSet reports whether the named flag was given explicitly.
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseList parses a comma-separated list of positive values; what names
// the element kind in the error.
func parseList[T int | float64](s, what string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := parse(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid %s %q", what, part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
