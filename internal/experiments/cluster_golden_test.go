package experiments

import (
	"bytes"
	"testing"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
)

// runClusterStudyObs mirrors the ci.sh cluster smoke: `kvsbench -items 2000
// -workers 2 -clients 2 -requests 20 -batches 8 -seed 7 cluster`, with
// tracing, metrics and profiling on.
func runClusterStudyObs(t *testing.T, parallel int) studyArtifacts {
	t.Helper()
	col := obs.NewCollector()
	set := prof.NewSet()
	col.EnableProfiling(set)
	tbl, err := ClusterStudy(kvsObsOptions(parallel, col))
	if err != nil {
		t.Fatal(err)
	}
	return renderStudy(t, col, set, func(b *bytes.Buffer) { tbl.Fprint(b) })
}

// TestClusterStudyGolden pins the consistent-hashing cluster study's table,
// and that its table, trace, metrics and folded profile are byte-identical
// at every golden -parallel setting.
func TestClusterStudyGolden(t *testing.T) {
	a := checkCompositions(t, func(parallel int) studyArtifacts {
		return runClusterStudyObs(t, parallel)
	})
	checkGolden(t, "cluster_study_table.golden.txt", a.table)
}

// TestClusterStudyRunsFaults: the cluster study runs under Faults, as every
// KVS study but the overload study does. At the ci.sh cluster smoke's scale,
// 30% message loss must change the table the fault-free run renders.
func TestClusterStudyRunsFaults(t *testing.T) {
	render := func(spec string) string {
		t.Helper()
		o := kvsObsOptions(1, nil)
		var err error
		if o.Faults, err = fault.ParseSpec(spec); err != nil {
			t.Fatal(err)
		}
		tbl, err := ClusterStudy(o)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		tbl.Fprint(&b)
		return b.String()
	}
	healthy := render("")
	lossy := render("drop=0.3,timeout=10µs,retries=1,backoff=5µs")
	if lossy == healthy {
		t.Errorf("a drop=0.3 cluster study rendered the fault-free table:\n%s", lossy)
	}
}
