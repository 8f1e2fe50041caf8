package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
)

// fleetSpecCLI is the exact -faults argument of the ci.sh fleet smoke step.
// Tuned to the golden run's virtual-time horizon (~72 arrivals at 200k/s ≈
// 360 us): each churn server crashes — and Leaves the ring — a few times,
// the timeout covers healthy latency, and light loss keeps failover honest.
const fleetSpecCLI = "drop=0.05,crash=100µs:30µs,timeout=10µs,retries=2,backoff=5µs"

// studyArtifacts is every artifact class a fleet-engine study renders: the
// report table, the trace JSON, the metrics CSV and the folded cycle
// profile.
type studyArtifacts struct {
	table, trace, metrics, folded []byte
}

// renderStudy gathers a finished study's printed table and its
// collector's artifacts.
func renderStudy(t *testing.T, col *obs.Collector, set *prof.Set, table []byte) studyArtifacts {
	t.Helper()
	var fb bytes.Buffer
	tr, ms := renderObs(t, col)
	set.WriteFolded(&fb)
	return studyArtifacts{table: table, trace: tr, metrics: ms, folded: fb.Bytes()}
}

// goldenCompositions are the -parallel settings the fleet-engine studies
// must agree at. -parallel only changes how many sweep points run at once,
// so every setting must render byte-identical artifacts. The first one is
// what the golden tests pin.
var goldenCompositions = []int{1, 4, 16}

// checkCompositions runs a study at every golden composition and fails on
// any artifact that differs from the first composition's. It returns the
// first composition's artifacts.
func checkCompositions(t *testing.T, run func(parallel int) studyArtifacts) studyArtifacts {
	t.Helper()
	base := run(goldenCompositions[0])
	for _, parallel := range goldenCompositions[1:] {
		got := run(parallel)
		label := fmt.Sprintf("-parallel %d", parallel)
		for _, a := range []struct {
			name      string
			want, got []byte
		}{
			{"table", base.table, got.table},
			{"trace JSON", base.trace, got.trace},
			{"metrics CSV", base.metrics, got.metrics},
			{"folded profile", base.folded, got.folded},
		} {
			if !bytes.Equal(a.want, a.got) {
				t.Errorf("%s %s diverges from -parallel 1", label, a.name)
			}
		}
	}
	// The run must have exercised the partitioned engine: per-partition
	// scopes leave their mark in the metrics artifact.
	if !strings.Contains(string(base.metrics), "part=") {
		t.Error("metrics artifact has no per-partition scope labels")
	}
	return base
}

// TestParallelDESBitIdentical is the determinism gate of the partitioned
// engine: the fleet and overload studies render byte-identical tables,
// trace JSON, metrics CSV and folded profiles at every golden -parallel
// setting.
func TestParallelDESBitIdentical(t *testing.T) {
	t.Run("fleet", func(t *testing.T) {
		checkCompositions(t, func(parallel int) studyArtifacts {
			return runFleetStudyObs(t, fleetSpecCLI, parallel)
		})
	})
	t.Run("overload", func(t *testing.T) {
		checkCompositions(t, func(parallel int) studyArtifacts {
			_, a := runOverloadStudyObs(t, parallel)
			return a
		})
	})
}

// traceSummary renders a trace JSON's structure compactly: one line per
// (track, event name, phase) with the event count and the summed duration
// in virtual µs, sorted. It is the readable half of a trace golden — the
// SHA-256 digest pins the exact bytes, the summary shows what moved.
func traceSummary(t *testing.T, traceJSON []byte) []byte {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
			Args struct {
				Name string `json:"name"` // track name on thread_name metadata
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON, &doc); err != nil {
		t.Fatal(err)
	}
	tracks := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.Tid] = ev.Args.Name
		}
	}
	type row struct {
		count int
		dur   float64
	}
	rows := map[string]*row{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		key := fmt.Sprintf("%s\t%s\t%s", tracks[ev.Tid], ev.Name, ev.Ph)
		r := rows[key]
		if r == nil {
			r = &row{}
			rows[key] = r
		}
		r.count++
		r.dur += ev.Dur
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("track\tname\tph\tcount\tdur_us\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%d\t%.3f\n", k, rows[k].count, rows[k].dur)
	}
	return b.Bytes()
}

// checkTraceGolden pins a trace artifact by a compact structural golden
// (<stem>_trace_summary.golden.txt, see traceSummary) and the SHA-256 of its
// exact bytes (<stem>_trace.golden.sha256, which ci.sh compares against the
// CLI's trace). The summary is checked first so a drift shows what changed.
func checkTraceGolden(t *testing.T, stem string, traceJSON []byte) {
	t.Helper()
	checkGolden(t, stem+"_trace_summary.golden.txt", traceSummary(t, traceJSON))
	checkGolden(t, stem+"_trace.golden.sha256", []byte(fmt.Sprintf("%x\n", sha256.Sum256(traceJSON))))
}

// runFleetStudyObs prints the fleet study at its golden's scale (the ci.sh
// fleet smoke) under the given -faults spec and -parallel, with profiling
// on.
func runFleetStudyObs(t *testing.T, spec string, parallel int) studyArtifacts {
	t.Helper()
	fs, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	set := prof.NewSet()
	col.EnableProfiling(set)
	inv := artifactGoldens["fleet"].at(parallel, col)
	inv.Fleet.Faults = fs
	return renderStudy(t, col, set, printArtifact(t, "fleet", inv))
}

// TestObsGoldenFleetStudy pins the fleet study's table, trace and metrics
// CSV: replicated reads, quorum writes, failovers and rebalance storms. That
// every -parallel setting renders the same bytes is
// TestParallelDESBitIdentical's job.
func TestObsGoldenFleetStudy(t *testing.T) {
	a := runFleetStudyObs(t, fleetSpecCLI, 1)
	checkArtifactGolden(t, "fleet", a.table)
	checkTraceGolden(t, "fleet_study", a.trace)
	checkGolden(t, "fleet_study_metrics.golden.csv", a.metrics)

	// The fleet machinery must actually bite: membership epochs, ownership
	// transfers, keys lost with their last replica, replica reads and quorum
	// writes all leave nonzero counts.
	checkSeriesLive(t, a.metrics,
		"fleet_epochs_total",
		"fleet_keys_moved_total",
		"fleet_keys_lost_total",
		"fleet_rebalances_done_total",
		"fleet_replica_reads_total",
		"fleet_quorum_writes_total",
		"fault_crash_drops_total",
	)
}

// TestFleetPressureServerLocal: pressure= bursts run on each server's own
// partition and stop on the coordinator's end-of-run signal. A churning,
// lossy fleet run with pressure armed completes, records the bursts under
// the per-server scopes, and renders byte-identical artifacts at every
// composition.
func TestFleetPressureServerLocal(t *testing.T) {
	const spec = "drop=0.05,crash=100µs:30µs,pressure=50@20µs,timeout=10µs,retries=2,backoff=5µs"
	a := checkCompositions(t, func(parallel int) studyArtifacts {
		return runFleetStudyObs(t, spec, parallel)
	})
	pressured := false
	for _, line := range strings.Split(string(a.metrics), "\n") {
		if strings.HasPrefix(line, "counter,fault_pressure_inserted_total,") && strings.Contains(line, "server=") {
			pressured = true
		}
	}
	if !pressured {
		t.Errorf("no per-server fault_pressure_inserted_total series:\n%s", a.metrics)
	}
}

// TestFleetStudyReportsSheds: the overload series follow the fault plan, not
// the study. A fleet study whose Faults arm an admission queue of depth 1
// under a heavy open-loop load reports the batches its servers shed.
func TestFleetStudyReportsSheds(t *testing.T) {
	spec, err := fault.ParseSpec("timeout=10µs,retries=2,backoff=5µs,qdepth=1")
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	o := FleetOptions{
		KVSOptions: KVSOptions{
			Items: 2000, Workers: 2, Clients: 4, Requests: 200, Batches: []int{8},
			Seed: 7, Obs: col, Faults: spec,
		},
		FleetSizes:    []int{3},
		Replication:   3,
		ArrivalRate:   2e6,
		WriteFraction: 0.05,
	}
	if _, err := FleetStudyResult(o); err != nil {
		t.Fatal(err)
	}
	shed := ""
	for _, p := range col.Registry.Snapshot() {
		if p.Name == "overload_shed_queue_full_total" {
			shed = p.Value
		}
	}
	if shed == "" || shed == "0" {
		t.Errorf("overload_shed_queue_full_total = %q, want a nonzero count", shed)
	}
}

// TestFleetPartitionedMachineryBites guards against the golden tests passing
// vacuously: at the golden workload the fleet must still see churn,
// rebalance traffic and failovers flowing over the simulated fabric.
func TestFleetPartitionedMachineryBites(t *testing.T) {
	spec, err := fault.ParseSpec(fleetSpecCLI)
	if err != nil {
		t.Fatal(err)
	}
	o := FleetOptions{
		KVSOptions:    KVSOptions{Items: 2000, Workers: 2, Clients: 2, Requests: 60, Batches: []int{8}, Seed: 7},
		FleetSizes:    []int{5},
		Replication:   3,
		ArrivalRate:   2e5,
		WriteFraction: 0.05,
	}
	o.Faults = spec
	results, err := FleetStudyResult(o)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.Epochs == 0 || res.KeysMoved == 0 {
		t.Errorf("no membership churn (epochs=%d moved=%d)", res.Epochs, res.KeysMoved)
	}
	if res.Failovers == 0 {
		t.Error("no failovers — fault streams not engaged")
	}
}

// TestFleetStudyRatesHonoured: the fleet study runs the write fraction and
// arrival rate it is given. A write fraction of 0 is a read-only fleet, and
// a write fraction or arrival rate that is negative, NaN or infinite fails
// with a *memslap.ConfigError naming it instead of running something else.
func TestFleetStudyRatesHonoured(t *testing.T) {
	o := FleetOptions{
		KVSOptions:  KVSOptions{Items: 2000, Workers: 2, Clients: 2, Requests: 60, Batches: []int{8}, Seed: 7},
		FleetSizes:  []int{3},
		Replication: 3,
		ArrivalRate: 2e5,
	}
	for _, tc := range []struct {
		writes float64
		some   bool
	}{{0, false}, {0.2, true}} {
		o.WriteFraction = tc.writes
		res, err := FleetStudyResult(o)
		if err != nil {
			t.Fatal(err)
		}
		if n := res[0].Writes + res[0].WritesFailed; (n > 0) != tc.some {
			t.Errorf("write fraction %g issued %d quorum writes", tc.writes, n)
		}
	}
	for _, tc := range []struct {
		field        string
		rate, writes float64
	}{
		{"write fraction", 2e5, -1},
		{"write fraction", 2e5, math.NaN()},
		{"arrival rate", -5, 0.05},
		{"arrival rate", math.NaN(), 0.05},
		{"arrival rate", math.Inf(1), 0.05},
	} {
		o.ArrivalRate, o.WriteFraction = tc.rate, tc.writes
		var cfgErr *memslap.ConfigError
		if _, err := FleetStudyResult(o); !errors.As(err, &cfgErr) || cfgErr.Field != tc.field {
			t.Errorf("arrival rate %g, write fraction %g: got %v, want a *memslap.ConfigError on %s", tc.rate, tc.writes, err, tc.field)
		}
	}
}

// TestFleetSpecRoundTripsCLI guards the ci.sh invocation: the committed
// fleet fault spec must parse and re-render canonically.
func TestFleetSpecRoundTripsCLI(t *testing.T) {
	spec, err := fault.ParseSpec(fleetSpecCLI)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != fleetSpecCLI {
		t.Errorf("spec renders %q, want %q", got, fleetSpecCLI)
	}
}
