package experiments

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/sweep"
	"simdhtbench/internal/workload"
)

// Small options keep the full-suite test run fast.
var testOpts = Options{Queries: 800, Seed: 1}
var testKVS = KVSOptions{Items: 40000, Workers: 26, Clients: 26, Requests: 400, Batches: []int{16}, Seed: 7}

// skipHeavyUnderRace exempts the few tests dominated by sequential multi-MB
// table fills from the race-detector run; see race_test.go.
func skipHeavyUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorOn {
		t.Skip("heavy sequential table fill; covered by the non-race run")
	}
}

func TestTable1(t *testing.T) { checkArtifact(t, "table1") }

func TestFig2ShapeHolds(t *testing.T) { checkArtifact(t, "fig2") }

func TestListing1MatchesPaper(t *testing.T) {
	out := checkArtifact(t, "listing1")
	// Spot-check the lines the paper prints.
	for _, want := range []string{
		"*(2,1) -> V-Ver, Opts: 256 bit - 8 keys/it, Opts: 512 bit - 16 keys/it",
		"*(2,4) -> V-Hor, Opts: 256 bit - 1 bucket/vec, Opts: 512 bit - 2 bucket/vec",
		"*(2,8) -> V-Hor, Opts: 512 bit - 1 bucket/vec",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("Listing 1 missing %q:\n%s", want, out)
		}
	}
}

// TestFig5Runs: fig5 prints its table and both grids from one sweep of 9
// variants x 2 patterns, however often an invocation prints it. Its golden
// is `simdhtbench -queries 800 -seed 1 fig5`'s stdout.
func TestFig5Runs(t *testing.T) {
	var jobs int
	inv := artifactGoldens["fig5"].at(0, nil)
	inv.Options.OnSweep = func(s *sweep.Stats) { jobs += len(s.Jobs) }
	out := printArtifact(t, "fig5", inv)
	if again := printArtifact(t, "fig5", inv); !bytes.Equal(again, out) {
		t.Error("a second fig5 in one invocation printed something else")
	}
	if jobs != 18 {
		t.Errorf("Fig. 5 ran %d configurations, want 18", jobs)
	}
	checkArtifactGolden(t, "fig5", out)
}

func TestFig6SpeedupDecays(t *testing.T) {
	skipHeavyUnderRace(t)
	checkArtifact(t, "fig6")
}

func TestFig7aRuns(t *testing.T) { checkArtifact(t, "fig7a") }

func TestFig7bRuns(t *testing.T) {
	skipHeavyUnderRace(t)
	checkArtifact(t, "fig7b")
}

func TestFig8Runs(t *testing.T) {
	skipHeavyUnderRace(t)
	checkArtifact(t, "fig8")
}

func TestFig9Runs(t *testing.T) { checkArtifact(t, "fig9") }

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

func TestFig11aTable(t *testing.T) { checkArtifact(t, "fig11a") }

func TestFig11bTable(t *testing.T) { checkArtifact(t, "fig11b") }

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

func TestSplitBucketStudy(t *testing.T) { checkArtifact(t, "split") }

func TestMixedWorkloadStudy(t *testing.T) { checkArtifact(t, "mixed") }

func TestAMACStudy(t *testing.T) {
	skipHeavyUnderRace(t)
	checkArtifact(t, "amac")
}

func TestEmergingArchitectures(t *testing.T) { checkArtifact(t, "arches") }

func TestETCStudy(t *testing.T) { checkArtifact(t, "etc") }

func TestClusterStudy(t *testing.T) { checkArtifact(t, "cluster") }

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
// reports to its collector. The overload study, which derives its own fault
// specs, rejects an enabled Faults the same way.
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
			_, err := FleetStudyResult(o)
			return err
		}
	}
	overload := func(set func(*OverloadOptions)) func(*obs.Collector) error {
		return func(col *obs.Collector) error {
			o := OverloadOptions{KVSOptions: kvs, Servers: 2, Multipliers: []float64{1}}
			o.Obs = col
			set(&o)
			_, err := OverloadStudyResult(o)
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
		{"faults", overload(func(o *OverloadOptions) { o.Faults = fault.Spec{Drop: 0.1} })},
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
