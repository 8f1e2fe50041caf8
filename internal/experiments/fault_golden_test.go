package experiments

import (
	"bytes"
	"strings"
	"testing"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/obs"
)

// faultSpecCLI is the exact -faults argument of the ci.sh fault-sweep smoke
// step; the golden below pins the CLI's artifacts. Tuned to the virtual-time
// scale of the small test run (healthy E2E latency ~2.4 us, run ~50 us): the
// timeout clears healthy latency, crash/slow/pressure periods fit inside the
// run several times over, and retries=1 with 15% loss leaves some batches
// degraded so every protocol counter moves.
const faultSpecCLI = "drop=0.15,crash=20µs:10µs,slow=4x@15µs:5µs,pressure=50@10µs,timeout=10µs,retries=1,backoff=5µs"

// runFaultSweepObs mirrors `kvsbench -items 2000 -workers 2 -clients 2
// -requests 20 -batches 8 -seed 7 -faults '<spec>' -trace -metrics
// fault-sweep` at the given -parallel.
func runFaultSweepObs(t *testing.T, parallel int) studyArtifacts {
	t.Helper()
	spec, err := fault.ParseSpec(faultSpecCLI)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	o := kvsObsOptions(parallel, col)
	o.Faults = spec
	tbl, err := FaultSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	return renderStudy(t, col, nil, func(b *bytes.Buffer) { tbl.Fprint(b) })
}

// TestObsGoldenFaultSweep pins the fault sweep's three artifacts and checks
// the tentpole determinism contract: with a fault plan active, the table,
// metrics CSV and trace JSON are byte-identical at every golden -parallel
// setting.
func TestObsGoldenFaultSweep(t *testing.T) {
	a := checkCompositions(t, func(parallel int) studyArtifacts {
		return runFaultSweepObs(t, parallel)
	})
	checkGolden(t, "fault_sweep_table.golden.txt", a.table)
	checkTraceGolden(t, "fault_sweep", a.trace)
	checkGolden(t, "fault_sweep_metrics.golden.csv", a.metrics)

	// The injection must actually bite: the metrics artifact carries live
	// fault and protocol counters, not a sea of zeros.
	for _, series := range []string{
		"fault_messages_dropped_total",
		"fault_crash_drops_total",
		"fault_slowdowns_total",
		"fault_pressure_inserted_total",
		"client_retries_total",
		"client_timeouts_total",
		"client_degraded_batches_total",
	} {
		if !strings.Contains(string(a.metrics), series) {
			t.Errorf("metrics artifact missing %s", series)
		}
	}
}

// TestFaultSpecRoundTripsCLI guards the ci.sh invocation: the committed spec
// string must parse and re-render canonically.
func TestFaultSpecRoundTripsCLI(t *testing.T) {
	spec, err := fault.ParseSpec(faultSpecCLI)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != faultSpecCLI {
		t.Errorf("spec renders %q, want %q", got, faultSpecCLI)
	}
}
