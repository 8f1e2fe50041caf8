package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"simdhtbench/internal/fault"
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

// renderStudy renders a finished study's table and its collector's
// artifacts.
func renderStudy(t *testing.T, col *obs.Collector, set *prof.Set, fprint func(*bytes.Buffer)) studyArtifacts {
	t.Helper()
	var tbl, fb bytes.Buffer
	fprint(&tbl)
	tr, ms := renderObs(t, col)
	set.WriteFolded(&fb)
	return studyArtifacts{table: tbl.Bytes(), trace: tr, metrics: ms, folded: fb.Bytes()}
}

// goldenCompositions are the (-parallel, -simworkers) settings the
// fleet-engine studies must agree at. -simworkers only changes how many host
// goroutines advance the fixed partition set and -parallel only how many
// sweep points run at once, so every composition must render byte-identical
// artifacts. The first one is what the golden tests pin.
var goldenCompositions = []struct{ parallel, simWorkers int }{{1, 1}, {4, 8}, {16, 2}}

// checkCompositions runs a study at every golden composition and fails on
// any artifact that differs from the first composition's. It returns the
// first composition's artifacts.
func checkCompositions(t *testing.T, run func(parallel, simWorkers int) studyArtifacts) studyArtifacts {
	t.Helper()
	base := run(goldenCompositions[0].parallel, goldenCompositions[0].simWorkers)
	for _, c := range goldenCompositions[1:] {
		got := run(c.parallel, c.simWorkers)
		label := fmt.Sprintf("-parallel %d -simworkers %d", c.parallel, c.simWorkers)
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
				t.Errorf("%s %s diverges from -parallel 1 -simworkers 1", label, a.name)
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
// trace JSON, metrics CSV and folded profiles at every golden
// (-parallel, -simworkers) composition.
func TestParallelDESBitIdentical(t *testing.T) {
	t.Run("fleet", func(t *testing.T) {
		checkCompositions(t, func(parallel, simWorkers int) studyArtifacts {
			return runFleetStudyObs(t, fleetSpecCLI, parallel, simWorkers)
		})
	})
	t.Run("overload", func(t *testing.T) {
		checkCompositions(t, func(parallel, simWorkers int) studyArtifacts {
			_, a := runOverloadStudyObs(t, parallel, simWorkers)
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

// runFleetStudyObs mirrors `kvsbench -fleet -items 2000 -workers 2
// -clients 2 -requests 60 -batches 8 -seed 7 -fleet-sizes 3,5
// -arrival-rate 200000 -faults '<spec>' -trace -metrics`, with profiling on.
func runFleetStudyObs(t *testing.T, spec string, parallel, simWorkers int) studyArtifacts {
	t.Helper()
	fs, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	set := prof.NewSet()
	col.EnableProfiling(set)
	o := FleetOptions{
		KVSOptions:  kvsObsOptions(parallel, col),
		FleetSizes:  []int{3, 5},
		ArrivalRate: 2e5,
	}
	o.Requests = 60
	o.Faults = fs
	o.SimWorkers = simWorkers
	tbl, err := FleetStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	return renderStudy(t, col, set, func(b *bytes.Buffer) { tbl.Fprint(b) })
}

// TestObsGoldenFleetStudy pins the fleet study's table, trace and metrics
// CSV: replicated reads, quorum writes, failovers and rebalance storms. That
// every (-parallel, -simworkers) composition renders the same bytes is
// TestParallelDESBitIdentical's job.
func TestObsGoldenFleetStudy(t *testing.T) {
	a := runFleetStudyObs(t, fleetSpecCLI, 1, 1)
	checkGolden(t, "fleet_study_table.golden.txt", a.table)
	checkTraceGolden(t, "fleet_study", a.trace)
	checkGolden(t, "fleet_study_metrics.golden.csv", a.metrics)

	// The fleet machinery must actually bite: membership epochs, ownership
	// transfers, replica reads and quorum writes all leave counters.
	for _, series := range []string{
		"fleet_epochs_total",
		"fleet_keys_moved_total",
		"fleet_rebalances_done_total",
		"fleet_replica_reads_total",
		"fleet_quorum_writes_total",
		"fault_crash_drops_total",
	} {
		if !strings.Contains(string(a.metrics), series) {
			t.Errorf("metrics artifact missing %s", series)
		}
	}
}

// TestFleetPressureServerLocal: pressure= bursts run on each server's own
// partition and stop on the coordinator's end-of-run signal. A churning,
// lossy fleet run with pressure armed completes, records the bursts under
// the per-server scopes, and renders byte-identical artifacts at every
// composition.
func TestFleetPressureServerLocal(t *testing.T) {
	const spec = "drop=0.05,crash=100µs:30µs,pressure=50@20µs,timeout=10µs,retries=2,backoff=5µs"
	a := checkCompositions(t, func(parallel, simWorkers int) studyArtifacts {
		return runFleetStudyObs(t, spec, parallel, simWorkers)
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

// TestFleetPartitionedMachineryBites guards against the golden tests passing
// vacuously: at the golden workload the fleet must still see churn,
// rebalance traffic and failovers flowing over the simulated fabric.
func TestFleetPartitionedMachineryBites(t *testing.T) {
	spec, err := fault.ParseSpec(fleetSpecCLI)
	if err != nil {
		t.Fatal(err)
	}
	o := FleetOptions{
		KVSOptions:  KVSOptions{Items: 2000, Workers: 2, Clients: 2, Requests: 60, Batches: []int{8}, Seed: 7},
		FleetSizes:  []int{5},
		ArrivalRate: 2e5,
	}
	o.Faults = spec
	o.SimWorkers = 2
	res, err := FleetStudyPoint(5, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 || res.KeysMoved == 0 {
		t.Errorf("no membership churn (epochs=%d moved=%d)", res.Epochs, res.KeysMoved)
	}
	if res.Failovers == 0 {
		t.Error("no failovers — fault streams not engaged")
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
