package experiments

import (
	"cmp"
	"fmt"
	"reflect"
	"strconv"
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

// publishFaultSpec arms the message and server faults the churn run does
// not: duplicates, delay spikes, slow windows, and insert pressure large
// enough that some pressure inserts fail on the one-server run of
// TestPublishedCountsMatchModel.
const publishFaultSpec = "dup=0.05,delayp=0.05,delay=2µs,slow=3x@10µs:5µs,pressure=2200@40µs,timeout=20µs,retries=2,backoff=5µs"

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
// run, an overloaded run with every control armed, a one-server run under
// message and server faults and a fault-free one-server Fig. 11 run go
// through kvsRun.run with a collector; the same runs without one give the
// model's counts. Each partition's des_* and net_* series must equal its
// Sim's and the fabric's counts, and its fault_messages_* series the
// fabric's fault counts; each server's server_* and fault_* series must
// equal that server's fields, and the run's client_retries_total, fleet_*
// and overload_* series the FleetResults fields. The churn run must lose
// keys, so fleet_keys_lost_total reads the rebalance outcome, not the
// coordinator's plan. A fault-free run has no fault_* or client_* series,
// a run with no overload control armed no overload_* series, and a run
// without a FleetProbe (a one-server Fig. 11 run) no fleet_* series. Each
// series lives only in the scope of the layer that can move it. Every
// series must read nonzero in some run: a zero could not tell one count
// from another.
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
		{"faults", oneServerRun(o, "vertical", 8, false, parse(publishFaultSpec)), false, false},
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
			// The CSV label column, which Snapshot renders, joins label
			// pairs with ';' and so turns a ',' inside a value into one.
			scope := "config=" + strings.ReplaceAll(tc.run.label, ",", ";")
			checkValue := func(name, labels, v string, nonzero bool) {
				t.Helper()
				live[name] = live[name] || nonzero
				key := name + "{" + labels + "}"
				if s, ok := series[key]; !ok {
					t.Errorf("%s not published", key)
				} else if s != v {
					t.Errorf("%s = %s, the model counts %s", key, s, v)
				}
			}
			check := func(name, labels string, v uint64) {
				t.Helper()
				checkValue(name, labels, fmt.Sprint(v), v > 0)
			}
			armed := tc.run.faults.Enabled()
			pd := fleet.Fabric.PartitionedEngine()
			for p := 0; p < pd.Parts(); p++ {
				labels := fmt.Sprintf("%s;part=p%d", scope, p)
				sim, net := pd.Sim(p), fleet.Fabric.PartitionCounts(p)
				check("des_events_total", labels, sim.Dispatched())
				checkValue("des_now_seconds", labels, strconv.FormatFloat(sim.Now(), 'g', -1, 64), sim.Now() > 0)
				check("net_segments_total", labels, net.Sent)
				check("net_bytes_total", labels, net.Bytes)
				if armed {
					check("fault_messages_dropped_total", labels, net.Dropped)
					check("fault_messages_duplicated_total", labels, net.Duplicated)
					check("fault_messages_delayed_total", labels, net.Delayed)
				}
			}
			for i, srv := range fleet.Servers {
				labels := fmt.Sprintf("%s;server=s%d", scope, i)
				check("server_batches_total", labels, srv.Batches)
				check("server_keys_total", labels, srv.KeysServed)
				check("server_keys_found_total", labels, srv.KeysFound)
				if armed {
					check("fault_crash_drops_total", labels, srv.CrashDrops)
					check("fault_slowdowns_total", labels, srv.Slowdowns)
					check("fault_pressure_inserted_total", labels, srv.PressureInserted)
					check("fault_pressure_failed_total", labels, srv.PressureFailed)
				}
			}
			published := []struct {
				prefix string
				on     bool
				counts map[string]uint64 // run-scope series
			}{
				{"fault_", armed, nil},
				{"client_", armed, map[string]uint64{
					"client_retries_total": want.Failovers,
				}},
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
			checkLayers(t, series)
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

// checkLayers fails t for each series in a scope whose layer cannot move
// it: client_* series belong to the run, fault_messages_* to a partition
// (the fabric charges a message fault to the partition that sends), and
// crash, slowdown and pressure series to a server.
func checkLayers(t *testing.T, series map[string]string) {
	t.Helper()
	for key := range series {
		name, labels, _ := strings.Cut(key, "{")
		layer := "run"
		if strings.Contains(labels, ";part=") {
			layer = "partition"
		} else if strings.Contains(labels, ";server=") {
			layer = "server"
		}
		var home string
		switch {
		case strings.HasPrefix(name, "client_"):
			home = "run"
		case strings.HasPrefix(name, "fault_messages_"):
			home = "partition"
		case strings.HasPrefix(name, "fault_"):
			home = "server"
		default:
			continue
		}
		if layer != home {
			t.Errorf("%s is in a %s scope; only a %s can move it", key, layer, home)
		}
	}
}
