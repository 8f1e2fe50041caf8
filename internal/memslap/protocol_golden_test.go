package memslap

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"simdhtbench/internal/kvs"
	"simdhtbench/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// protocolSpec arms every fault and overload path of the client protocol at
// once on a replicated fleet: message drops, duplicates and delay spikes,
// crash windows that also drive ring churn, per-sub-batch timeouts with
// retries, admission shedding at a one-deep worker queue, a small retry
// budget and hedged reads.
const protocolSpec = "drop=0.02,dup=0.05,delayp=0.05,delay=4us,crash=400us:120us,timeout=30us,retries=2,backoff=5us,qdepth=1,budget=4,hedge=10us"

// protocolRun drives a 4-server, R=2 open-loop fleet with quorum writes
// under protocolSpec and renders everything the run leaves behind: every
// FleetResults field at full precision, the summed server counters, the
// fabric counters, the dispatched event count and the fleet and client
// probe metrics.
func protocolRun(t *testing.T) (FleetResults, *Fleet, []byte) {
	t.Helper()
	plan := mustSpec(t, protocolSpec).NewPlan(21)
	fleet := buildFleet(t, 4, 1200, 2)
	armFabric(fleet, plan)
	for i, srv := range fleet.Servers {
		srv.Faults = plan.ForServer(i)
	}
	col := obs.NewCollector()
	res, err := RunFleet(fleet, FleetConfig{
		Config: Config{
			Clients: 6, BatchSize: 12, Requests: 300, KeyBytes: 20, Seed: 17, Faults: plan,
			ClientProbe: col.ClientProbe(),
		},
		ArrivalRate:   1.2e6,
		WriteFraction: 0.15,
		Churn:         true,
		FleetProbe:    col.FleetProbe(),
	})
	if err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	b.WriteString("# FleetResults\n")
	writeFields(&b, "", reflect.ValueOf(res))

	b.WriteString("# servers (summed in server order)\n")
	var sum struct {
		Batches, KeysServed, KeysFound, Evictions     uint64
		ReplicaBatches, ReplicaItems                  uint64
		CrashDrops, Slowdowns                         uint64
		PressureInserted, PressureFailed              uint64
		ShedQueueFull, ShedDeadline, Grants, Rejected uint64
		PhaseTotals                                   kvs.PhaseBreakdown
	}
	for _, s := range fleet.Servers {
		sum.Batches += s.Batches
		sum.KeysServed += s.KeysServed
		sum.KeysFound += s.KeysFound
		sum.Evictions += s.Evictions
		sum.ReplicaBatches += s.ReplicaBatches
		sum.ReplicaItems += s.ReplicaItems
		sum.CrashDrops += s.CrashDrops
		sum.Slowdowns += s.Slowdowns
		sum.PressureInserted += s.PressureInserted
		sum.PressureFailed += s.PressureFailed
		sum.ShedQueueFull += s.ShedQueueFull
		sum.ShedDeadline += s.ShedDeadline
		sum.Grants += s.Workers.Grants()
		sum.Rejected += s.Workers.Rejected()
		sum.PhaseTotals.Pre += s.PhaseTotals.Pre
		sum.PhaseTotals.Lookup += s.PhaseTotals.Lookup
		sum.PhaseTotals.Post += s.PhaseTotals.Post
	}
	writeFields(&b, "", reflect.ValueOf(sum))

	b.WriteString("# fabric and engine\n")
	fab := fleet.Fabric
	fmt.Fprintf(&b, "MessagesSent %d\nBytesSent %d\nMessagesDropped %d\nMessagesDuplicated %d\nMessagesDelayed %d\nDispatched %d\n",
		fab.MessagesSent(), fab.BytesSent(), fab.MessagesDropped(), fab.MessagesDuplicated(), fab.MessagesDelayed(),
		fleet.pd.Dispatched())

	b.WriteString("# probe metrics\n")
	if err := col.Registry.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return res, fleet, b.Bytes()
}

// writeFields renders v's fields one per line, floats in the shortest form
// that reads back to the same bits, nested structs with a dotted prefix.
func writeFields(b *bytes.Buffer, prefix string, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		name, f := prefix+v.Type().Field(i).Name, v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			writeFields(b, name+".", f)
		case reflect.Float64:
			fmt.Fprintf(b, "%s %s\n", name, strconv.FormatFloat(f.Float(), 'g', -1, 64))
		default:
			fmt.Fprintf(b, "%s %v\n", name, f.Interface())
		}
	}
}

// TestFleetProtocolGolden pins the client protocol's fault and overload
// paths on a replicated fleet — paths the experiment goldens leave
// unexercised (duplicated and delayed messages through R ≥ 2, hedges that
// win, failed quorum writes). Each path must actually fire, and the run
// must render the committed golden byte for byte.
func TestFleetProtocolGolden(t *testing.T) {
	const golden = "testdata/fleet_protocol.golden.txt"
	res, fleet, got := protocolRun(t)
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"hedges", res.Hedges},
		{"hedge wins", res.HedgeWins},
		{"failovers", res.Failovers},
		{"budget denials", res.BudgetDenied},
		{"sheds", res.ShedQueueFull + res.ShedDeadline},
		{"failed writes", res.WritesFailed},
		{"epochs", res.Epochs},
		{"duplicated messages", fleet.Fabric.MessagesDuplicated()},
		{"delayed messages", fleet.Fabric.MessagesDelayed()},
	} {
		if c.n == 0 {
			t.Errorf("no %s", c.name)
		}
	}
	// A hedge wins at most once: every win is a hedged duplicate that was
	// issued and counted.
	if res.HedgeWins > res.Hedges {
		t.Errorf("%d hedge wins exceed %d hedges", res.HedgeWins, res.Hedges)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("protocol run differs from %s:\n%s", golden, got)
	}
}
