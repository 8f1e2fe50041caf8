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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"simdhtbench/internal/experiments"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
	"simdhtbench/internal/report"
	"simdhtbench/internal/sweep"
)

func main() {
	var (
		items      = flag.Int("items", 200000, "stored key-value items (paper: 2M)")
		workers    = flag.Int("workers", 26, "server worker threads")
		clients    = flag.Int("clients", 26, "memslap client threads")
		requests   = flag.Int("requests", 3000, "measured Multi-Gets per configuration")
		batches    = flag.String("batches", "16,64", "comma-separated Multi-Get sizes")
		backend    = flag.String("backend", "vertical", "single: memc3|horizontal|vertical")
		batch      = flag.Int("batch", 16, "single: Multi-Get size")
		seed       = flag.Int64("seed", 7, "random seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel   = flag.Int("parallel", 0, "sweep workers fanning configurations out (0 = all cores, 1 = sequential); output is identical at every setting")
		simWorkers = flag.Int("simworkers", 1, "fleet/overload: host workers advancing one simulation's partitions in parallel (1 = serial); output is identical at every setting")
		sstats     = flag.Bool("sweepstats", false, "print per-job sweep timing to stderr after each experiment")

		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON file (virtual time = DES clock)")
		metricsOut = flag.String("metrics", "", "write the metrics registry as CSV")
		profile    = flag.String("profile", "", "emit the deterministic time account: 'cycles' writes folded flamegraph stacks (unit: virtual microseconds) to stdout and the breakdown table to stderr; report tables move to stderr")
		manifestP  = flag.String("manifest", "", "write a structured run manifest (JSON: config, seeds, artifact digests, metric snapshot, time account) to this file")
		heartbeat  = flag.Int("heartbeat", 0, "print a stderr progress line every N dispatched simulation events (0 = off; wall-derived, never in deterministic output)")

		faults    = flag.String("faults", "", "fault-injection spec, e.g. 'drop=0.1,crash=20us:10us,timeout=10us,retries=3,backoff=5us' (empty = no faults)")
		faultSeed = flag.Int64("fault-seed", 0, "fault plan RNG seed (0 = -seed); all fault timing is virtual, so output stays deterministic")

		fleetCmd    = flag.Bool("fleet", false, "run the fleet-scale replication study (same as the `fleet` command)")
		fleetSizes  = flag.String("fleet-sizes", "3,8,16,32,64", "fleet: comma-separated server counts")
		replication = flag.Int("replication", 3, "fleet: replica-set width R (clamped to each fleet size); overload: replica width (default 2 there)")
		arrivalRate = flag.Float64("arrival-rate", 2e5, "fleet: aggregate open-loop Multi-Get arrival rate (requests/s of virtual time)")
		writeFrac   = flag.Float64("write-frac", 0.05, "fleet: fraction of requests issued as quorum writes")

		overloadCmd     = flag.Bool("overload", false, "run the metastable-overload study (same as the `overload` command)")
		overloadServers = flag.Int("overload-servers", 4, "overload: fleet width")
		overloadMults   = flag.String("overload-mults", "0.5,0.75,1,1.5,2", "overload: comma-separated offered-load multipliers of measured capacity")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	wallStart := obs.WallNow()
	if *profile != "" && *profile != "cycles" {
		fatal(fmt.Errorf("unknown -profile kind %q (want cycles)", *profile))
	}
	if *profile != "" {
		// The folded account stacks own stdout in profile mode, so the
		// report tables move to stderr.
		tablesTo = os.Stderr
	}

	// pprof output is wall-clock-shaped by nature and goes to its own
	// files, never into tables, -trace or -metrics, so the deterministic
	// artifacts stay byte-identical whether or not profiling is enabled.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	spec, err := fault.ParseSpec(*faults)
	check(err)
	opts := experiments.KVSOptions{
		Items:      *items,
		Workers:    *workers,
		Clients:    *clients,
		Requests:   *requests,
		Batches:    parseBatches(*batches),
		Seed:       *seed,
		Parallel:   *parallel,
		SimWorkers: *simWorkers,
		Faults:     spec,
		FaultSeed:  *faultSeed,
	}
	if *sstats {
		opts.OnSweep = printSweepStats
	}
	opts.Heartbeat = obs.NewHeartbeat(*heartbeat, os.Stderr)
	var col *obs.Collector
	if *traceOut != "" || *metricsOut != "" || *profile != "" || *manifestP != "" {
		col = obs.NewCollector()
		opts.Obs = col
	}
	if *profile != "" || *manifestP != "" {
		col.EnableProfiling(prof.NewSet())
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
	fleetOpts := experiments.FleetOptions{
		KVSOptions:    opts,
		FleetSizes:    parseBatches(*fleetSizes),
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
		Multipliers: parseMults(*overloadMults),
	}
	for _, cmd := range args {
		switch cmd {
		case "all":
			t, err := experiments.Fig11a(opts)
			check(err)
			emit(t, *csv)
			t, err = experiments.Fig11b(opts)
			check(err)
			emit(t, *csv)
		case "fig11a":
			t, err := experiments.Fig11a(opts)
			check(err)
			emit(t, *csv)
		case "fig11b":
			t, err := experiments.Fig11b(opts)
			check(err)
			emit(t, *csv)
		case "etc":
			t, err := experiments.ETCStudy(opts)
			check(err)
			emit(t, *csv)
		case "cluster":
			t, err := experiments.ClusterStudy(opts)
			check(err)
			emit(t, *csv)
		case "fleet":
			t, err := experiments.FleetStudy(fleetOpts)
			check(err)
			emit(t, *csv)
		case "overload":
			t, err := experiments.OverloadStudy(overloadOpts)
			check(err)
			emit(t, *csv)
		case "fault-sweep":
			t, err := experiments.FaultSweep(opts)
			check(err)
			emit(t, *csv)
		case "single":
			res, err := experiments.RunKVS(*backend, *batch, opts)
			check(err)
			fmt.Fprintln(tablesTo, res)
			fmt.Fprintf(tablesTo, "  phases per batch: pre=%.2fus lookup=%.2fus post=%.2fus (util %.2f)\n",
				res.Breakdown.Pre*1e6, res.Breakdown.Lookup*1e6, res.Breakdown.Post*1e6, res.WorkerUtil)
		default:
			fatal(fmt.Errorf("unknown command %q (want fig11a, fig11b, etc, cluster, fleet, overload, fault-sweep, single, all)", cmd))
		}
	}
	digests, err := obs.WriteArtifacts(col, *traceOut, *metricsOut)
	check(err)
	if *profile != "" {
		set := col.ProfilerSet()
		check(set.WriteTable(os.Stderr))
		check(set.WriteFolded(os.Stdout))
	}
	if *manifestP != "" {
		seeds := map[string]string{"seed": fmt.Sprint(*seed)}
		if *faultSeed != 0 {
			seeds["fault-seed"] = fmt.Sprint(*faultSeed)
		}
		m, err := obs.BuildManifest("kvsbench", "", flag.CommandLine,
			seeds, digests, col, obs.WallSince(wallStart).Seconds())
		check(err)
		check(m.WriteFile(*manifestP))
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		check(err)
		runtime.GC()
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
}

// printSweepStats renders sweep wall-clock profiling to stderr through a
// throwaway registry — profiling output never mixes into -metrics, which
// must stay deterministic.
func printSweepStats(s *sweep.Stats) {
	reg := obs.NewRegistry()
	s.Record(reg)
	if err := reg.WriteText(os.Stderr); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr)
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

func parseMults(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			fatal(fmt.Errorf("invalid load multiplier %q", part))
		}
		out = append(out, v)
	}
	return out
}

func parseBatches(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			fatal(fmt.Errorf("invalid batch size %q", part))
		}
		out = append(out, v)
	}
	return out
}

// tablesTo is where report tables go: stdout normally, stderr in -profile
// mode (the folded account stacks own stdout there).
var tablesTo io.Writer = os.Stdout

func emit(t *report.Table, csv bool) {
	if csv {
		t.CSV(tablesTo)
	} else {
		t.Fprint(tablesTo)
	}
	fmt.Fprintln(tablesTo)
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kvsbench:", err)
	os.Exit(1)
}
