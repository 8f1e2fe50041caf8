package experiments

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"simdhtbench/internal/memslap"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/report"
	"simdhtbench/internal/sweep"
	"simdhtbench/internal/workload"
)

// rows counts a table's data rows through its CSV rendering.
func rows(t *report.Table) int {
	var b strings.Builder
	t.CSV(&b)
	return strings.Count(b.String(), "\n") - 1
}

// Small options keep the full-suite test run fast; the shapes asserted here
// are the coarse ones that must hold even at reduced query counts.
var testOpts = Options{Queries: 800, Seed: 1}
var testKVS = KVSOptions{Items: 40000, Workers: 26, Clients: 26, Requests: 400, Batches: []int{16}, Seed: 7}

// checkTableGolden pins a study's rendered table against testdata/name, so
// a cost-model or refactoring change that moves any cell fails here, not
// only one that changes the row count. Regenerate one by naming its test:
//
//	go test ./internal/experiments -run '^TestFig8Runs$' -update
func checkTableGolden(t *testing.T, name string, tab *report.Table) {
	t.Helper()
	var buf bytes.Buffer
	tab.Fprint(&buf)
	checkGolden(t, name, buf.Bytes())
}

// skipHeavyUnderRace exempts the few tests dominated by sequential multi-MB
// table fills from the race-detector run; see race_test.go.
func skipHeavyUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorOn {
		t.Skip("heavy sequential table fill; covered by the non-race run")
	}
}

func TestTable1(t *testing.T) {
	tab := Table1()
	if rows(tab) != 8 {
		t.Errorf("Table I rows = %d, want 8", rows(tab))
	}
}

func TestFig2ShapeHolds(t *testing.T) {
	tab, err := Fig2(Options{Queries: 6000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 12 {
		t.Errorf("Fig2 rows = %d, want 12", rows(tab))
	}
}

func TestListing1MatchesPaper(t *testing.T) {
	s, err := Listing1()
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the lines the paper prints.
	for _, want := range []string{
		"*(2,1) -> V-Ver, Opts: 256 bit - 8 keys/it, Opts: 512 bit - 16 keys/it",
		"*(2,4) -> V-Hor, Opts: 256 bit - 1 bucket/vec, Opts: 512 bit - 2 bucket/vec",
		"*(2,8) -> V-Hor, Opts: 512 bit - 1 bucket/vec",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Listing 1 missing %q:\n%s", want, s)
		}
	}
}

func TestFig5Runs(t *testing.T) {
	var jobs int
	o := testOpts
	o.OnSweep = func(s *sweep.Stats) { jobs += len(s.Jobs) }
	fig, err := Fig5StudyResult(o)
	if err != nil {
		t.Fatal(err)
	}
	// 9 variants x 2 patterns, run once for the table and both grids.
	if jobs != 18 {
		t.Errorf("Fig. 5 ran %d configurations, want 18", jobs)
	}
	tab := Fig5Table(fig)
	if rows(tab) != 18 {
		t.Errorf("Fig5 rows = %d, want 18", rows(tab))
	}
	// The golden is `simdhtbench -queries 800 -seed 1 fig5`'s stdout: the
	// table and both grids, each followed by a blank line.
	var buf bytes.Buffer
	tab.Fprint(&buf)
	buf.WriteString("\n")
	for _, p := range []workload.Pattern{workload.Uniform, workload.Skewed} {
		Fig5Grid(fig, p).Fprint(&buf)
		buf.WriteString("\n")
	}
	checkGolden(t, "fig5_q800_seed1.golden", buf.Bytes())
}

func TestFig6SpeedupDecays(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Fig6(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 10 {
		t.Fatalf("Fig6 rows = %d, want 10", rows(tab))
	}
	checkTableGolden(t, "fig6_q800_seed1.golden", tab)
}

func TestFig7aRuns(t *testing.T) {
	tab, err := Fig7a(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 8 {
		t.Errorf("Fig7a rows = %d, want 8", rows(tab))
	}
	checkTableGolden(t, "fig7a_q800_seed1.golden", tab)
}

func TestFig7bRuns(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Fig7b(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 8 {
		t.Errorf("Fig7b rows = %d, want 8", rows(tab))
	}
	checkTableGolden(t, "fig7b_q800_seed1.golden", tab)
}

func TestFig8Runs(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := Fig8(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 16 {
		t.Errorf("Fig8 rows = %d, want 16", rows(tab))
	}
	checkTableGolden(t, "fig8_q800_seed1.golden", tab)
}

func TestFig9Runs(t *testing.T) {
	tab, err := Fig9(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 4 {
		t.Errorf("Fig9 rows = %d, want 4", rows(tab))
	}
	checkTableGolden(t, "fig9_q800_seed1.golden", tab)
}

func TestRunKVSBackends(t *testing.T) {
	var lookupThr [3]float64
	for i, backend := range KVSBackends() {
		res, err := RunKVS(backend, 16, testKVS)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.HitRate < 0.999 {
			t.Errorf("%s hit rate %.3f, want 1.0", backend, res.HitRate)
		}
		lookupThr[i] = 16 / res.Breakdown.Lookup
	}
	// The paper's headline: both SIMD backends beat MemC3 on lookup-phase
	// throughput (Fig. 11a).
	if lookupThr[1] <= lookupThr[0] || lookupThr[2] <= lookupThr[0] {
		t.Errorf("SIMD lookup throughput must exceed MemC3: %v", lookupThr)
	}
}

func TestRunKVSUnknownBackend(t *testing.T) {
	if _, err := RunKVS("nope", 16, testKVS); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestFig11aTable(t *testing.T) {
	res, err := Fig11StudyResult(testKVS)
	if err != nil {
		t.Fatal(err)
	}
	tab := Fig11aTable(res)
	if rows(tab) != 3 {
		t.Errorf("Fig11a rows = %d, want 3 (one batch x three backends)", rows(tab))
	}
}

func TestFig11bTable(t *testing.T) {
	res, err := Fig11StudyResult(testKVS)
	if err != nil {
		t.Fatal(err)
	}
	tab := Fig11bTable(res)
	if rows(tab) != 3 {
		t.Errorf("Fig11b rows = %d, want 3", rows(tab))
	}
}

func TestSizeLabel(t *testing.T) {
	if sizeLabel(256<<10) != "256 KB" {
		t.Error(sizeLabel(256 << 10))
	}
	if sizeLabel(16<<20) != "16 MB" {
		t.Error(sizeLabel(16 << 20))
	}
	if _, err := strconv.Atoi(strings.Fields(sizeLabel(1 << 20))[0]); err != nil {
		t.Error("size label should lead with a number")
	}
}

func TestSplitBucketStudy(t *testing.T) {
	tab, err := SplitBucket(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 6 {
		t.Errorf("SplitBucket rows = %d, want 6", rows(tab))
	}
	checkTableGolden(t, "split_q800_seed1.golden", tab)
}

func TestMixedWorkloadStudy(t *testing.T) {
	tab, err := MixedWorkload(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 5 {
		t.Errorf("MixedWorkload rows = %d, want 5", rows(tab))
	}
	checkTableGolden(t, "mixed_q800_seed1.golden", tab)
}

func TestAMACStudy(t *testing.T) {
	skipHeavyUnderRace(t)
	tab, err := AMACStudy(Options{Queries: 600, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 3 {
		t.Errorf("AMACStudy rows = %d, want 3", rows(tab))
	}
	checkTableGolden(t, "amac_q600_seed1.golden", tab)
}

func TestEmergingArchitectures(t *testing.T) {
	tab, err := EmergingArchitectures(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 4 {
		t.Errorf("EmergingArchitectures rows = %d, want 4", rows(tab))
	}
	checkTableGolden(t, "arches_q800_seed1.golden", tab)
}

func TestETCStudy(t *testing.T) {
	tab, err := ETCStudy(testKVS)
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 3 {
		t.Errorf("ETCStudy rows = %d, want 3", rows(tab))
	}
}

func TestClusterStudy(t *testing.T) {
	tab, err := ClusterStudy(KVSOptions{Items: 20000, Workers: 26, Clients: 26, Requests: 200, Batches: []int{16}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rows(tab) != 3 {
		t.Errorf("ClusterStudy rows = %d, want 3 (1/2/4 servers)", rows(tab))
	}
}

func TestFig5GridShape(t *testing.T) {
	fig, err := Fig5StudyResult(Options{Queries: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Fig5Grid(fig, workload.Uniform).Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"m=1", "m=8", "N=2", "N=4", "M/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid missing %q", want)
		}
	}
}

// TestStudyOptionsRejectedByName: zero is a value, not "use the default".
// Each study entry rejects a count that is not positive, an empty list, and
// a rate or multiplier that is not positive and finite with a
// *memslap.ConfigError naming the option, before it builds anything that
// reports to its collector.
func TestStudyOptionsRejectedByName(t *testing.T) {
	kvs := KVSOptions{Items: 2000, Workers: 2, Clients: 2, Requests: 20, Batches: []int{8}, Seed: 7}
	single := func(set func(*KVSOptions)) func(*obs.Collector) error {
		return func(col *obs.Collector) error {
			o := kvs
			o.Obs = col
			set(&o)
			_, err := RunKVS("vertical", 8, o)
			return err
		}
	}
	fleet := func(set func(*FleetOptions)) func(*obs.Collector) error {
		return func(col *obs.Collector) error {
			o := FleetOptions{KVSOptions: kvs, FleetSizes: []int{3}, Replication: 3, ArrivalRate: 2e5, WriteFraction: 0.05}
			o.Obs = col
			set(&o)
			_, err := FleetStudy(o)
			return err
		}
	}
	overload := func(set func(*OverloadOptions)) func(*obs.Collector) error {
		return func(col *obs.Collector) error {
			o := OverloadOptions{KVSOptions: kvs, Servers: 2, Multipliers: []float64{1}}
			o.Obs = col
			set(&o)
			_, err := OverloadStudy(o)
			return err
		}
	}
	for _, tc := range []struct {
		field string
		run   func(*obs.Collector) error
	}{
		{"items", single(func(o *KVSOptions) { o.Items = 0 })},
		{"workers", single(func(o *KVSOptions) { o.Workers = 0 })},
		{"clients", single(func(o *KVSOptions) { o.Clients = 0 })},
		{"requests", single(func(o *KVSOptions) { o.Requests = 0 })},
		{"batch size", func(col *obs.Collector) error {
			o := kvs
			o.Batches, o.Obs = nil, col
			_, err := Fig11StudyResult(o)
			return err
		}},
		{"replication", fleet(func(o *FleetOptions) { o.Replication = 0 })},
		{"arrival rate", fleet(func(o *FleetOptions) { o.ArrivalRate = 0 })},
		{"fleet size", fleet(func(o *FleetOptions) { o.FleetSizes = []int{3, 0} })},
		{"servers", overload(func(o *OverloadOptions) { o.Servers = 0 })},
		{"load multiplier", overload(func(o *OverloadOptions) { o.Multipliers = []float64{1, math.NaN()} })},
		{"queries", func(col *obs.Collector) error {
			_, err := Fig9(Options{Queries: -5, Seed: 1, Obs: col})
			return err
		}},
	} {
		col := obs.NewCollector()
		err := tc.run(col)
		var cfgErr *memslap.ConfigError
		if !errors.As(err, &cfgErr) || cfgErr.Field != tc.field {
			t.Errorf("%s: got %v, want a *memslap.ConfigError on %s", tc.field, err, tc.field)
		}
		if n := len(col.Registry.Snapshot()); n != 0 {
			t.Errorf("%s: %d metric series recorded before the rejection", tc.field, n)
		}
	}
}
