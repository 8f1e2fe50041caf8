package netsim

import (
	"testing"

	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
)

// faultFabric builds an unpartitioned fabric on a one-partition engine whose
// single slot runs the spec's plan, and returns the plan too (nil for a zero
// spec).
func faultFabric(t *testing.T, spec string, seed int64) (*des.Partitioned, *Fabric, *fault.Plan) {
	t.Helper()
	s, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	pd := des.NewPartitioned(1, 1, 1e-6)
	f := New(pd.Sim(0), EDR())
	plan := s.NewPlan(seed)
	f.SetPartitionFaults(0, plan, nil)
	return pd, f, plan
}

func TestFaultDropLosesMessages(t *testing.T) {
	pd, f, _ := faultFabric(t, "drop=0.5", 42)
	a, b := f.Endpoint("a"), f.Endpoint("b")
	delivered := 0
	for i := 0; i < 200; i++ {
		a.Send(b, 64, func() { delivered++ })
	}
	pd.Run()
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
	pd, f, _ := faultFabric(t, "dup=1.0", 7)
	a, b := f.Endpoint("a"), f.Endpoint("b")
	delivered := 0
	a.Send(b, 64, func() { delivered++ })
	pd.Run()
	if delivered != 2 {
		t.Fatalf("dup=1.0 delivered %d times, want 2", delivered)
	}
	if f.MessagesDuplicated() != 1 {
		t.Errorf("duplicated counter %d, want 1", f.MessagesDuplicated())
	}
}

func TestFaultDelaySpikeShiftsArrival(t *testing.T) {
	pdH, fH, plan := faultFabric(t, "dup=0", 7) // zero spec → nil plan → healthy
	if plan != nil {
		t.Fatal("zero spec must compile to a nil plan")
	}
	a, b := fH.Endpoint("a"), fH.Endpoint("b")
	var healthyAt float64
	a.Send(b, 64, func() { healthyAt = pdH.Sim(0).Now() })
	pdH.Run()

	pd, f, _ := faultFabric(t, "delayp=1.0,delay=5us", 7)
	a, b = f.Endpoint("a"), f.Endpoint("b")
	var spikedAt float64
	a.Send(b, 64, func() { spikedAt = pd.Sim(0).Now() })
	pd.Run()
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
		pd, f, _ := faultFabric(t, "drop=0.3,dup=0.2,delayp=0.2,delay=2us", seed)
		a, b := f.Endpoint("a"), f.Endpoint("b")
		var got []bool
		for i := 0; i < 100; i++ {
			arrived := false
			a.Send(b, 64, func() { arrived = true })
			pd.Run()
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

// faultCounter is a fault probe that counts the message faults injected on
// the partition it is armed for.
type faultCounter struct{ dropped, duplicated, delayed uint64 }

func (c *faultCounter) MessageDropped(_, _ string, _ int, _ float64)    { c.dropped++ }
func (c *faultCounter) MessageDuplicated(_, _ string, _ int, _ float64) { c.duplicated++ }
func (c *faultCounter) MessageDelayed(_, _ string, _ int, _, _ float64) { c.delayed++ }
func (c *faultCounter) CrashDropped(float64)                            {}
func (c *faultCounter) SlowdownApplied(_, _ float64)                    {}
func (c *faultCounter) PressureApplied(_, _ int, _ float64)             {}

// TestPartitionCountsChargeTheSource: on a two-partition fabric where both
// partitions send to each other under a fault plan, every segment sent and
// every injected fault is charged to the partition the message leaves
// from, and Totals is the sum of the partitions' counts. The partitions
// send different message counts and sizes, so a count charged to the
// wrong partition shows; each destination's deliveries (sent - dropped +
// duplicated) witness the drop and duplicate counts independently.
func TestPartitionCountsChargeTheSource(t *testing.T) {
	spec, err := fault.ParseSpec("drop=0.1,dup=0.1,delayp=0.1,delay=2us")
	if err != nil {
		t.Fatal(err)
	}
	plan := spec.NewPlan(3)
	cfg := EDR()
	pd := des.NewPartitioned(2, 1, cfg.SmallMessageLatency())
	f := New(pd.Sim(0), cfg)
	f.Partition(pd)
	eps := []*Endpoint{f.EndpointAt("a", 0), f.EndpointAt("b", 1)}
	probes := make([]faultCounter, 2)
	for p := range eps {
		f.SetPartitionFaults(p, plan.ForPartition(p), &probes[p])
	}
	// Partition 0 sends 300 one-segment messages, partition 1 sends 120
	// three-segment ones.
	msgs := []int{300, 120}
	sizes := []int{64, 2*cfg.MaxMessageBytes + 100}
	delivered := make([]int, 2) // deliveries at each partition
	for p := range eps {
		pd.Sim(p).At(0, func() {
			for i := 0; i < msgs[p]; i++ {
				eps[p].Send(eps[1-p], sizes[p], func() { delivered[1-p]++ })
			}
		})
	}
	pd.Run()

	var sum Counts
	for p := range eps {
		got := f.PartitionCounts(p)
		segments := (sizes[p] + cfg.MaxMessageBytes - 1) / cfg.MaxMessageBytes
		want := Counts{
			Sent:       uint64(msgs[p] * segments),
			Bytes:      uint64(msgs[p] * sizes[p]),
			Dropped:    probes[p].dropped,
			Duplicated: probes[p].duplicated,
			Delayed:    probes[p].delayed,
		}
		if got != want {
			t.Errorf("partition %d counts %+v, want %+v", p, got, want)
		}
		if got.Dropped == 0 || got.Duplicated == 0 || got.Delayed == 0 {
			t.Errorf("partition %d counts %+v: every fault kind must fire", p, got)
		}
		if n := msgs[p] - int(got.Dropped) + int(got.Duplicated); delivered[1-p] != n {
			t.Errorf("partition %d received %d messages, want %d sent from partition %d - %d dropped + %d duplicated",
				1-p, delivered[1-p], msgs[p], p, got.Dropped, got.Duplicated)
		}
		sum.Sent += got.Sent
		sum.Bytes += got.Bytes
		sum.Dropped += got.Dropped
		sum.Duplicated += got.Duplicated
		sum.Delayed += got.Delayed
	}
	if got := f.Totals(); got != sum {
		t.Errorf("Totals = %+v, want the partitions' sum %+v", got, sum)
	}
}
