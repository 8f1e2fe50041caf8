package netsim

import (
	"testing"

	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
)

// faultFabric builds an unpartitioned fabric whose single slot runs the
// spec's plan, and returns the plan too (nil for a zero spec).
func faultFabric(t *testing.T, spec string, seed int64) (*des.Sim, *Fabric, *fault.Plan) {
	t.Helper()
	s, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	f := New(sim, EDR())
	plan := s.NewPlan(seed)
	f.SetPartitionFaults(0, plan, nil)
	return sim, f, plan
}

func TestFaultDropLosesMessages(t *testing.T) {
	sim, f, _ := faultFabric(t, "drop=0.5", 42)
	a, b := f.Endpoint("a"), f.Endpoint("b")
	delivered := 0
	for i := 0; i < 200; i++ {
		a.Send(b, 64, func() { delivered++ })
	}
	sim.Run()
	dropped := int(f.MessagesDropped())
	if delivered+dropped != 200 {
		t.Fatalf("delivered %d + dropped %d != 200", delivered, dropped)
	}
	// 50% drop over 200 sends: both outcomes must actually occur, in bulk.
	if dropped < 50 || dropped > 150 {
		t.Errorf("dropped %d of 200 at p=0.5", dropped)
	}
	// Sent counters still account the attempt: the NIC time was spent.
	if f.MessagesSent() != 200 {
		t.Errorf("sent counter %d, want 200", f.MessagesSent())
	}
}

func TestFaultDuplicateDeliversTwice(t *testing.T) {
	sim, f, _ := faultFabric(t, "dup=1.0", 7)
	a, b := f.Endpoint("a"), f.Endpoint("b")
	delivered := 0
	a.Send(b, 64, func() { delivered++ })
	sim.Run()
	if delivered != 2 {
		t.Fatalf("dup=1.0 delivered %d times, want 2", delivered)
	}
	if f.MessagesDuplicated() != 1 {
		t.Errorf("duplicated counter %d, want 1", f.MessagesDuplicated())
	}
}

func TestFaultDelaySpikeShiftsArrival(t *testing.T) {
	simH, fH, plan := faultFabric(t, "dup=0", 7) // zero spec → nil plan → healthy
	if plan != nil {
		t.Fatal("zero spec must compile to a nil plan")
	}
	a, b := fH.Endpoint("a"), fH.Endpoint("b")
	var healthyAt float64
	a.Send(b, 64, func() { healthyAt = simH.Now() })
	simH.Run()

	sim, f, _ := faultFabric(t, "delayp=1.0,delay=5us", 7)
	a, b = f.Endpoint("a"), f.Endpoint("b")
	var spikedAt float64
	a.Send(b, 64, func() { spikedAt = sim.Now() })
	sim.Run()
	if got, want := spikedAt-healthyAt, 5e-6; got < want*0.99 || got > want*3 {
		t.Errorf("delay spike shifted arrival by %v, want ≈%v or more", got, want)
	}
	if f.MessagesDelayed() != 1 {
		t.Errorf("delayed counter %d, want 1", f.MessagesDelayed())
	}
}

// TestFaultDeterministicStream pins the determinism contract at the fabric
// layer: identical seeds produce the identical drop/dup/delay pattern,
// different seeds diverge.
func TestFaultDeterministicStream(t *testing.T) {
	pattern := func(seed int64) []bool {
		sim, f, _ := faultFabric(t, "drop=0.3,dup=0.2,delayp=0.2,delay=2us", seed)
		a, b := f.Endpoint("a"), f.Endpoint("b")
		var got []bool
		for i := 0; i < 100; i++ {
			arrived := false
			a.Send(b, 64, func() { arrived = true })
			sim.Run()
			got = append(got, arrived)
		}
		return got
	}
	a1, a2, b1 := pattern(1), pattern(1), pattern(2)
	same := true
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at message %d", i)
		}
		if a1[i] != b1[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced the identical drop pattern")
	}
}
