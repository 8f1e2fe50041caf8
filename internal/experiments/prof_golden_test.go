package experiments

import (
	"bytes"
	"testing"

	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
)

// The cycle-account profiler promises: folded output is byte-identical at
// every Parallel setting (frames accumulate in exact charge order inside
// each scope, and scopes render sorted), enabling profiling changes no
// deterministic artifact or table, and the account matches a committed
// golden. Regenerate with
//
//	go test ./internal/experiments -run ProfGolden -update

// runFig7aProf mirrors `simdhtbench -queries 400 -seed 1 -profile cycles fig7a`.
func runFig7aProf(t *testing.T, parallel int) (table, folded, traceJSON, metricsCSV []byte) {
	t.Helper()
	col := obs.NewCollector()
	set := prof.NewSet()
	col.EnableProfiling(set)
	tbl, err := Fig7a(Options{Queries: 400, Seed: 1, Parallel: parallel, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	var buf, fb bytes.Buffer
	tbl.Fprint(&buf)
	if err := set.WriteFolded(&fb); err != nil {
		t.Fatal(err)
	}
	tr, ms := renderObs(t, col)
	return buf.Bytes(), fb.Bytes(), tr, ms
}

func TestProfGoldenFig7a(t *testing.T) {
	tbl1, fold1, tr1, ms1 := runFig7aProf(t, 1)
	_, fold4, _, _ := runFig7aProf(t, 4)
	_, fold16, _, _ := runFig7aProf(t, 16)
	if !bytes.Equal(fold1, fold4) || !bytes.Equal(fold1, fold16) {
		t.Fatal("fig7a cycle account diverges across -parallel 1/4/16")
	}

	// Profiling neutrality: the profiled run's table and obs artifacts are
	// byte-identical to an unprofiled run's (the committed obs goldens).
	bareTbl, bareTr, bareMs := runFig7aObs(t, 1)
	if !bytes.Equal(bareTbl, tbl1) {
		t.Error("enabling profiling changed the fig7a table")
	}
	if !bytes.Equal(bareTr, tr1) || !bytes.Equal(bareMs, ms1) {
		t.Error("enabling profiling changed the fig7a trace/metrics artifacts")
	}

	checkGolden(t, "prof_fig7a_folded.golden.txt", fold1)
}

// TestProfGoldenFig11a pins the `kvsbench ... -profile cycles fig11a` time
// account at laptop scale, checks that every artifact is byte-identical at
// every golden -parallel setting, and that profiling changes no table
// cell, trace event or metric (the obs goldens).
func TestProfGoldenFig11a(t *testing.T) {
	a := checkCompositions(t, func(parallel int) studyArtifacts {
		return runFig11aStudy(t, parallel, true)
	})
	if !bytes.Equal(bareFig11aTable(t), a.table) {
		t.Error("enabling profiling changed the fig11a table")
	}
	checkTraceGolden(t, "obs_fig11a", a.trace)
	checkGolden(t, "obs_fig11a_metrics.golden.csv", a.metrics)
	checkGolden(t, "prof_fig11a_folded.golden.txt", a.folded)
}
