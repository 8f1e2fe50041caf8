package experiments

import (
	"bytes"
	"testing"

	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
)

// runClusterStudyObs mirrors the ci.sh cluster smoke: `kvsbench -items 2000
// -workers 2 -clients 2 -requests 20 -batches 8 -seed 7 cluster`, with
// tracing, metrics and profiling on.
func runClusterStudyObs(t *testing.T, parallel, simWorkers int) studyArtifacts {
	t.Helper()
	col := obs.NewCollector()
	set := prof.NewSet()
	col.EnableProfiling(set)
	o := kvsObsOptions(parallel, col)
	o.SimWorkers = simWorkers
	tbl, err := ClusterStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	return renderStudy(t, col, set, func(b *bytes.Buffer) { tbl.Fprint(b) })
}

// TestClusterStudyGolden pins the consistent-hashing cluster study's table,
// and that its table, trace, metrics and folded profile are byte-identical
// at every golden (-parallel, -simworkers) composition.
func TestClusterStudyGolden(t *testing.T) {
	a := checkCompositions(t, func(parallel, simWorkers int) studyArtifacts {
		return runClusterStudyObs(t, parallel, simWorkers)
	})
	checkGolden(t, "cluster_study_table.golden.txt", a.table)
}
