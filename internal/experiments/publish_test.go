package experiments

import (
	"cmp"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/obs"
)

// publishOverloadSpec arms every overload control. On the overloaded fleet
// of TestPublishedCountsMatchModel each overload_* count is nonzero and no
// two are equal, so a series that read the wrong field would differ.
const publishOverloadSpec = "timeout=20µs,retries=3,backoff=3µs,qdepth=8,qdeadline=2µs,budget=6,hedge=1µs"

// bareRun runs r under o as kvsRun.run does, with no collector, and returns
// the fleet, whose servers hold their own counts, and its results.
func bareRun(t *testing.T, r kvsRun, o KVSOptions) (*memslap.Fleet, memslap.FleetResults) {
	t.Helper()
	plan := r.faults.NewPlan(cmp.Or(o.FaultSeed, o.Seed))
	cfg := r.cfg
	cfg.Requests, cfg.Seed, cfg.Faults = o.Requests, o.Seed, plan
	fleet, err := newFleet(o, nil, plan, r.shape)
	if err != nil {
		t.Fatal(err)
	}
	res, err := memslap.RunFleet(fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, res
}

// TestPublishedCountsMatchModel: every series kvsRun.publish writes equals
// the model count it reads, in the scope it belongs to. A churning fleet
// run and an overloaded run with every control armed go through
// kvsRun.run with a collector; the same runs without one give the model's
// counts. Each server's server_* series must equal that server's fields,
// and the run's fleet_* and overload_* series the FleetResults fields. The
// churn run must lose keys, so fleet_keys_lost_total reads the rebalance
// outcome, not the coordinator's plan. A run with no overload control
// armed has no overload_* series, and a run without a FleetProbe (a
// one-server Fig. 11 run) no fleet_* series. Every series must read
// nonzero in some run: a zero could not tell one count from another.
func TestPublishedCountsMatchModel(t *testing.T) {
	parse := func(spec string) fault.Spec {
		s, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	o := KVSOptions{Items: 2000, Workers: 2, Clients: 4, Requests: 60, Batches: []int{8}, Seed: 7}
	fo := FleetOptions{KVSOptions: o, Replication: 3, ArrivalRate: 2e5, WriteFraction: 0.05}
	oo := OverloadOptions{KVSOptions: o, Servers: 2}
	live := map[string]bool{} // series with a nonzero model count in some run
	for _, tc := range []struct {
		name            string
		run             kvsRun
		fleet, overload bool // whether the run publishes fleet_* and overload_* series
	}{
		{"churn", fo.fleetRun(3, parse(fleetSpecCLI)), true, false},
		{"overload", oo.overloadRun("overload", parse(publishOverloadSpec), 3e6, o.Clients), true, true},
		{"one server", oneServerRun(o, "vertical", 8, false, fault.Spec{}), false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := obs.NewCollector()
			oc := o
			oc.Obs = col
			got, err := tc.run.run(oc)
			if err != nil {
				t.Fatal(err)
			}
			fleet, want := bareRun(t, tc.run, o)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the run with a collector returned %+v, without one %+v", got, want)
			}

			series := map[string]string{} // "name{labels}" -> value
			for _, p := range col.Registry.Snapshot() {
				series[p.Name+"{"+p.Labels+"}"] = p.Value
			}
			scope := "config=" + tc.run.label
			check := func(name, labels string, v uint64) {
				t.Helper()
				live[name] = live[name] || v > 0
				key := name + "{" + labels + "}"
				if s, ok := series[key]; !ok {
					t.Errorf("%s not published", key)
				} else if s != fmt.Sprint(v) {
					t.Errorf("%s = %s, the model counts %d", key, s, v)
				}
			}
			for i, srv := range fleet.Servers {
				labels := fmt.Sprintf("%s;server=s%d", scope, i)
				check("server_batches_total", labels, srv.Batches)
				check("server_keys_total", labels, srv.KeysServed)
				check("server_keys_found_total", labels, srv.KeysFound)
			}
			published := []struct {
				prefix string
				on     bool
				counts map[string]uint64
			}{
				{"fleet_", tc.fleet, map[string]uint64{
					"fleet_epochs_total":     want.Epochs,
					"fleet_failovers_total":  want.Failovers,
					"fleet_keys_moved_total": want.KeysMoved,
					"fleet_keys_lost_total":  want.KeysLost,
				}},
				{"overload_", tc.overload, map[string]uint64{
					"overload_shed_queue_full_total": want.ShedQueueFull,
					"overload_shed_deadline_total":   want.ShedDeadline,
					"overload_queue_highwater":       uint64(want.QueueHighWater),
					"overload_hedges_total":          want.Hedges,
					"overload_hedge_wins_total":      want.HedgeWins,
					"overload_budget_denied_total":   want.BudgetDenied,
					"overload_client_rejects_total":  want.ClientRejects,
				}},
			}
			for _, p := range published {
				if !p.on {
					for key := range series {
						if strings.HasPrefix(key, p.prefix) {
							t.Errorf("%s published by a run that should publish no %s* series", key, p.prefix)
						}
					}
					continue
				}
				for name, v := range p.counts {
					check(name, scope, v)
				}
			}
			if tc.run.cfg.Churn && want.KeysLost == 0 {
				t.Error("the churn run lost no keys")
			}
		})
	}
	for name, ok := range live {
		if !ok {
			t.Errorf("%s is zero in every run", name)
		}
	}
}
