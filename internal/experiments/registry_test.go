package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/report"
)

// bufPrinter prints artifacts as a CLI prints them without -csv.
type bufPrinter struct{ bytes.Buffer }

func (b *bufPrinter) Emit(t *report.Table)    { t.Fprint(b); b.WriteString("\n") }
func (b *bufPrinter) EmitGrid(g *report.Grid) { g.Fprint(b); b.WriteString("\n") }
func (b *bufPrinter) EmitText(s string)       { b.WriteString(s + "\n") }

// artifactGolden pins a registry artifact: its golden under testdata/ and
// the test-scale invocation whose stdout the golden holds.
type artifactGolden struct {
	file string
	inv  Invocation
}

// artifactGoldens holds one golden per artifact of either registry.
// Fig. 11a, the cluster study and the fault sweep run at the ci.sh smoke
// scale (kvsObsOptions), and the fleet and overload studies at their ci.sh
// smokes' scales.
var artifactGoldens = map[string]artifactGolden{
	"table1":   {"table1.golden", Invocation{}},
	"fig2":     {"fig2_seed1.golden", Invocation{Options: Options{Queries: 6000, Seed: 1}}},
	"fig5":     {"fig5_q800_seed1.golden", Invocation{Options: testOpts}},
	"fig6":     {"fig6_q800_seed1.golden", Invocation{Options: testOpts}},
	"fig7a":    {"fig7a_q800_seed1.golden", Invocation{Options: testOpts}},
	"fig7b":    {"fig7b_q800_seed1.golden", Invocation{Options: testOpts}},
	"fig8":     {"fig8_q800_seed1.golden", Invocation{Options: testOpts}},
	"fig9":     {"fig9_q800_seed1.golden", Invocation{Options: testOpts}},
	"listing1": {"listing1.golden", Invocation{}},
	"split":    {"split_q800_seed1.golden", Invocation{Options: testOpts}},
	"mixed":    {"mixed_q800_seed1.golden", Invocation{Options: testOpts}},
	"amac":     {"amac_q600_seed1.golden", Invocation{Options: Options{Queries: 600, Seed: 1}}},
	"arches":   {"arches_q800_seed1.golden", Invocation{Options: testOpts}},

	"fig11a": {"fig11a_smoke_seed7.golden", Invocation{KVS: kvsObsOptions(0, nil)}},
	"fig11b": {"fig11b_seed7.golden", Invocation{KVS: KVSOptions{
		Items: 4000, Workers: 4, Clients: 4, Requests: 150, Batches: []int{8, 16}, Seed: 7,
	}}},
	"etc":     {"etc_seed7.golden", Invocation{KVS: testKVS}},
	"cluster": {"cluster_study_table.golden.txt", Invocation{KVS: kvsObsOptions(0, nil)}},
	"fleet": {"fleet_study_table.golden.txt", Invocation{Fleet: FleetOptions{
		KVSOptions: KVSOptions{
			Items: 2000, Workers: 2, Clients: 2, Requests: 60, Batches: []int{8}, Seed: 7,
			Faults: mustSpec(fleetSpecCLI),
		},
		FleetSizes: []int{3, 5}, Replication: 3, ArrivalRate: 2e5, WriteFraction: 0.05,
	}}},
	"overload": {"overload_study_table.golden.txt", Invocation{Overload: OverloadOptions{
		KVSOptions:  KVSOptions{Items: 2000, Workers: 2, Clients: 4, Requests: 400, Batches: []int{8}, Seed: 7},
		Servers:     2,
		Multipliers: []float64{0.5, 1, 1.5, 2},
	}}},
	"fault-sweep": {"fault_sweep_table.golden.txt", Invocation{KVS: KVSOptions{
		Items: 2000, Workers: 2, Clients: 2, Requests: 20, Batches: []int{8}, Seed: 7,
		Faults: mustSpec(faultSpecCLI),
	}}},
}

// mustSpec parses a committed fault spec; the *SpecRoundTripsCLI tests
// check that each one parses.
func mustSpec(s string) fault.Spec {
	spec, err := fault.ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// at returns the golden's invocation at the given -parallel setting, with
// col collecting.
func (g artifactGolden) at(parallel int, col *obs.Collector) *Invocation {
	inv := g.inv
	inv.Options.Parallel, inv.Options.Obs = parallel, col
	for _, o := range []*KVSOptions{&inv.KVS, &inv.Fleet.KVSOptions, &inv.Overload.KVSOptions} {
		o.Parallel, o.Obs = parallel, col
	}
	return &inv
}

// printArtifact prints the named artifact through its tool's registry under
// inv and returns what it printed.
func printArtifact(t *testing.T, name string, inv *Invocation) []byte {
	t.Helper()
	for _, reg := range []Registry{MicroArtifacts, KVSArtifacts} {
		if arts, ok := reg.Resolve(name); ok {
			var p bufPrinter
			for _, a := range arts {
				if err := a.Print(inv, &p); err != nil {
					t.Fatal(err)
				}
			}
			return p.Bytes()
		}
	}
	t.Fatalf("no artifact %q", name)
	return nil
}

// checkArtifact prints the named artifact at its golden's scale, pins the
// output against the golden and returns it. Regenerate one golden by
// naming its test:
//
//	go test ./internal/experiments -run '^TestFig8Runs$' -update
func checkArtifact(t *testing.T, name string) []byte {
	t.Helper()
	out := printArtifact(t, name, artifactGoldens[name].at(0, nil))
	checkArtifactGolden(t, name, out)
	return out
}

// checkArtifactGolden pins out, what the named artifact printed, against
// its golden. The table goldens older than the registry leave out the
// closing blank line, and -update keeps each golden's shape.
func checkArtifactGolden(t *testing.T, name string, out []byte) {
	t.Helper()
	file := artifactGoldens[name].file
	if old, err := os.ReadFile(filepath.Join("testdata", file)); err == nil && !bytes.HasSuffix(old, []byte("\n\n")) {
		out = bytes.TrimSuffix(out, []byte("\n"))
	}
	checkGolden(t, file, out)
}

// TestRegistry: within each tool no two artifacts share a name or alias and
// none takes the name of a plain command or all, each tool's `all` prints
// its pinned list in order, and every artifact has exactly one golden.
func TestRegistry(t *testing.T) {
	artifacts := 0
	for _, tc := range []struct {
		reg Registry
		all string
	}{
		{MicroArtifacts, "table1 fig2 fig5 fig6 fig7a fig7b fig8 fig9 listing1"},
		{KVSArtifacts, "fig11a fig11b"},
	} {
		taken := map[string]bool{"all": true, "validate": true, "run": true, "advise": true,
			"record": true, "selftest": true, "single": true}
		for _, a := range tc.reg {
			for _, name := range append([]string{a.Name}, a.Aliases...) {
				if taken[name] {
					t.Errorf("%s: the name %q is taken", a.Name, name)
				}
				taken[name] = true
			}
			if _, ok := artifactGoldens[a.Name]; !ok {
				t.Errorf("artifact %s has no golden", a.Name)
			}
		}
		artifacts += len(tc.reg)
		var all []string
		arts, _ := tc.reg.Resolve("all")
		for _, a := range arts {
			all = append(all, a.Name)
		}
		if got := strings.Join(all, " "); got != tc.all {
			t.Errorf("all prints %s, want %s", got, tc.all)
		}
	}
	if len(artifactGoldens) != artifacts {
		t.Errorf("%d goldens for %d artifacts", len(artifactGoldens), artifacts)
	}
}
