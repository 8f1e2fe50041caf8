package experiments

import (
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

// runFaultSweepObs prints the fault sweep at its golden's scale (the ci.sh
// fault-sweep smoke) and the given -parallel.
func runFaultSweepObs(t *testing.T, parallel int) studyArtifacts {
	t.Helper()
	col := obs.NewCollector()
	return renderStudy(t, col, nil, printArtifact(t, "fault-sweep", artifactGoldens["fault-sweep"].at(parallel, col)))
}

// TestObsGoldenFaultSweep pins the fault sweep's three artifacts and checks
// the tentpole determinism contract: with a fault plan active, the table,
// metrics CSV and trace JSON are byte-identical at every golden -parallel
// setting.
func TestObsGoldenFaultSweep(t *testing.T) {
	a := checkCompositions(t, func(parallel int) studyArtifacts {
		return runFaultSweepObs(t, parallel)
	})
	checkArtifactGolden(t, "fault-sweep", a.table)
	checkTraceGolden(t, "fault_sweep", a.trace)
	checkGolden(t, "fault_sweep_metrics.golden.csv", a.metrics)

	// The injection must actually bite: the metrics artifact carries live
	// fault and protocol counters, not a sea of zeros.
	checkSeriesLive(t, a.metrics,
		"fault_messages_dropped_total",
		"fault_crash_drops_total",
		"fault_slowdowns_total",
		"fault_pressure_inserted_total",
		"client_retries_total",
		"client_timeouts_total",
		"client_degraded_batches_total",
	)
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
