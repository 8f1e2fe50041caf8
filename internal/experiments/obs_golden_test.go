package experiments

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
)

// The observability layer promises three things tested here: attaching a
// collector never changes the measured tables, its artifacts are
// byte-identical at every Parallel setting, and both renderings match
// committed goldens (which the CLI smoke test in scripts/ci.sh reproduces
// through the -trace/-metrics flags). Regenerate with
//
//	go test ./internal/experiments -run ObsGolden -update

// renderObs renders a collector's two artifacts.
func renderObs(t *testing.T, col *obs.Collector) (traceJSON, metricsCSV []byte) {
	t.Helper()
	var tr, ms bytes.Buffer
	if err := col.Tracer.WriteJSON(&tr); err != nil {
		t.Fatal(err)
	}
	if err := col.Registry.WriteCSV(&ms); err != nil {
		t.Fatal(err)
	}
	return tr.Bytes(), ms.Bytes()
}

// checkSeriesLive fails t for each named series that the metrics CSV holds
// in no scope with a nonzero value. Probes register their series when they
// are created, so a name in the artifact alone proves nothing.
func checkSeriesLive(t *testing.T, metricsCSV []byte, names ...string) {
	t.Helper()
	live := map[string]bool{}
	for _, line := range strings.Split(string(metricsCSV), "\n") {
		if f := strings.Split(line, ","); len(f) == 5 && f[4] != "0" {
			live[f[1]] = true
		}
	}
	for _, name := range names {
		if !live[name] {
			t.Errorf("metrics artifact has no nonzero %s", name)
		}
	}
}

// runFig7aObs mirrors `simdhtbench -queries 400 -seed 1 -trace -metrics fig7a`.
func runFig7aObs(t *testing.T, parallel int) (table, traceJSON, metricsCSV []byte) {
	t.Helper()
	col := obs.NewCollector()
	tbl, err := Fig7a(Options{Queries: 400, Seed: 1, Parallel: parallel, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	tr, ms := renderObs(t, col)
	return buf.Bytes(), tr, ms
}

func TestObsGoldenFig7a(t *testing.T) {
	tbl1, tr1, ms1 := runFig7aObs(t, 1)
	tbl8, tr8, ms8 := runFig7aObs(t, 8)
	if !bytes.Equal(tr1, tr8) || !bytes.Equal(ms1, ms8) {
		t.Fatal("fig7a obs artifacts diverge between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(tbl1, tbl8) {
		t.Fatal("fig7a table diverges between -parallel 1 and -parallel 8")
	}
	// Probe neutrality: the observed run renders the same table as a bare one.
	bare, err := Fig7a(Options{Queries: 400, Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bare.Fprint(&buf)
	if !bytes.Equal(buf.Bytes(), tbl1) {
		t.Error("attaching obs changed the fig7a table")
	}
	checkGolden(t, "obs_fig7a_trace.golden.json", tr1)
	checkGolden(t, "obs_fig7a_metrics.golden.csv", ms1)
}

// kvsObsOptions mirrors the scale of the ci.sh fig11a smoke: `kvsbench
// -items 2000 -workers 2 -clients 2 -requests 20 -batches 8 -seed 7
// -trace -metrics fig11a`.
func kvsObsOptions(parallel int, col *obs.Collector) KVSOptions {
	return KVSOptions{
		Items: 2000, Workers: 2, Clients: 2, Requests: 20,
		Batches: []int{8}, Seed: 7, Parallel: parallel, Obs: col,
	}
}

// runFig11aStudy prints Fig. 11a at its golden's scale and the given
// -parallel, with -profile cycles when profile is set.
func runFig11aStudy(t *testing.T, parallel int, profile bool) studyArtifacts {
	t.Helper()
	col := obs.NewCollector()
	var set *prof.Set
	if profile {
		set = prof.NewSet()
		col.EnableProfiling(set)
	}
	return renderStudy(t, col, set, printArtifact(t, "fig11a", artifactGoldens["fig11a"].at(parallel, col)))
}

// TestObsGoldenFig11a pins Fig. 11a's trace and metrics, checks that they
// and the table are byte-identical at every golden -parallel setting, and
// that attaching obs changes no table cell: the table matches the golden
// TestFig11aTable prints without a collector.
func TestObsGoldenFig11a(t *testing.T) {
	a := checkCompositions(t, func(parallel int) studyArtifacts {
		return runFig11aStudy(t, parallel, false)
	})
	checkArtifactGolden(t, "fig11a", a.table)
	checkTraceGolden(t, "obs_fig11a", a.trace)
	checkGolden(t, "obs_fig11a_metrics.golden.csv", a.metrics)
}

// TestHeartbeatCountsEveryEvent: -heartbeat ticks once per dispatched DES
// event on every partition, so a study run with an every-1 heartbeat ends
// at ticks= equal to des_events_total summed over its part= scopes.
func TestHeartbeatCountsEveryEvent(t *testing.T) {
	var beats bytes.Buffer
	col := obs.NewCollector()
	o := kvsObsOptions(1, col)
	o.Heartbeat = obs.NewHeartbeat(1, &beats)
	if _, err := Fig11StudyResult(o); err != nil {
		t.Fatal(err)
	}
	_, metrics := renderObs(t, col)
	events := 0
	for _, line := range strings.Split(string(metrics), "\n") {
		f := strings.Split(line, ",")
		if len(f) == 5 && f[1] == "des_events_total" && strings.Contains(f[2], "part=") {
			n, err := strconv.Atoi(f[4])
			if err != nil {
				t.Fatal(err)
			}
			events += n
		}
	}
	ticks := regexp.MustCompile(`ticks=(\d+)`).FindAllStringSubmatch(beats.String(), -1)
	if events == 0 || len(ticks) == 0 {
		t.Fatalf("%d events, %d heartbeat lines", events, len(ticks))
	}
	if last := ticks[len(ticks)-1][1]; last != strconv.Itoa(events) {
		t.Errorf("last heartbeat at ticks=%s, want the %d events dispatched across partitions", last, events)
	}
}
