package experiments

import (
	"bytes"
	"strings"
	"testing"

	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
)

// overloadObsOptions mirrors the ci.sh overload smoke: `kvsbench -items 2000
// -workers 2 -clients 4 -requests 400 -batches 8 -seed 7 -overload-servers 2
// -overload-mults 0.5,1,1.5,2 -trace -metrics overload`.
func overloadObsOptions(parallel int, col *obs.Collector) OverloadOptions {
	return OverloadOptions{
		KVSOptions: KVSOptions{
			Items: 2000, Workers: 2, Clients: 4, Requests: 400,
			Batches: []int{8}, Seed: 7, Parallel: parallel, Obs: col,
		},
		Servers:     2,
		Multipliers: []float64{0.5, 1, 1.5, 2},
	}
}

func runOverloadStudyObs(t *testing.T, parallel int) (OverloadResult, studyArtifacts) {
	t.Helper()
	col := obs.NewCollector()
	set := prof.NewSet()
	col.EnableProfiling(set)
	o := overloadObsOptions(parallel, col)
	res, err := OverloadStudyResult(o)
	if err != nil {
		t.Fatal(err)
	}
	return res, renderStudy(t, col, set, func(b *bytes.Buffer) { OverloadTable(o, res).Fprint(b) })
}

// TestObsGoldenOverloadStudy pins the overload study's table, trace and
// metrics CSV: admission sheds, rejected-response failover, retry budgets
// and hedged reads. That every -parallel setting renders the same bytes is
// TestParallelDESBitIdentical's job.
func TestObsGoldenOverloadStudy(t *testing.T) {
	res, a := runOverloadStudyObs(t, 1)
	checkGolden(t, "overload_study_table.golden.txt", a.table)
	checkTraceGolden(t, "overload_study", a.trace)
	checkGolden(t, "overload_study_metrics.golden.csv", a.metrics)

	// The overload machinery must actually bite: sheds, budget denials and
	// hedges all leave counters in the metrics artifact.
	for _, series := range []string{
		"overload_shed_queue_full_total",
		"overload_client_rejects_total",
		"overload_budget_denied_total",
		"overload_hedges_total",
		"overload_queue_highwater",
	} {
		if !strings.Contains(string(a.metrics), series) {
			t.Errorf("metrics artifact missing %s", series)
		}
	}
	assertOverloadShape(t, res)
}

// assertOverloadShape pins the study's two headline claims on the structured
// result.
func assertOverloadShape(t *testing.T, res OverloadResult) {
	t.Helper()
	point := func(mult float64, controls bool) *OverloadPoint {
		for i := range res.Points {
			p := &res.Points[i]
			if p.Multiplier == mult && p.Controls == controls {
				return p
			}
		}
		t.Fatalf("study result missing point x%.2f controls=%v", mult, controls)
		return nil
	}

	// Controls off, the fleet is metastable: at 2x capacity every queue-
	// delayed request times out, retries add load, and served work goes
	// stale before its client accepts it — goodput at 2x must fall below
	// goodput at 1x (congestion collapse), driven by a timeout/retry storm.
	off1, off2 := point(1, false), point(2, false)
	if off2.Results.GoodputKeys >= off1.Results.GoodputKeys {
		t.Errorf("controls-off goodput did not collapse: 2x %.0f keys/s >= 1x %.0f keys/s",
			off2.Results.GoodputKeys, off1.Results.GoodputKeys)
	}
	if off2.Results.Timeouts == 0 || off2.Results.Retries == 0 {
		t.Errorf("controls-off 2x shows no timeout/retry storm (timeouts=%d retries=%d)",
			off2.Results.Timeouts, off2.Results.Retries)
	}

	// Controls on, degradation is graceful: excess load is shed at
	// admission for a 16-byte reject and retries are budgeted, so goodput
	// at 2x holds at or above 90% of measured capacity. (It may exceed the
	// closed-loop capacity figure: an open-loop stuffed admission queue has
	// none of the closed loop's fan-out synchronization gaps.)
	on2 := point(2, true)
	if on2.Results.GoodputKeys < 0.9*res.CapacityKeys {
		t.Errorf("controls-on goodput collapsed at 2x: %.0f keys/s < 90%% of capacity %.0f keys/s",
			on2.Results.GoodputKeys, res.CapacityKeys)
	}
	if on2.Results.ShedQueueFull == 0 || on2.Results.BudgetDenied == 0 {
		t.Errorf("controls-on 2x never shed or denied (shedQ=%d budgetDenied=%d) — controls not engaged",
			on2.Results.ShedQueueFull, on2.Results.BudgetDenied)
	}
}
