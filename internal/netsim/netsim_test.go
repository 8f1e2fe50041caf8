package netsim

import (
	"math"
	"testing"

	"simdhtbench/internal/des"
)

func TestSmallMessageLatency(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	f := New(sim, EDR())
	a, b := f.Endpoint("a"), f.Endpoint("b")
	var arrived float64
	a.Send(b, 0, func() { arrived = sim.Now() })
	pd.Run()
	want := EDR().SmallMessageLatency()
	if math.Abs(arrived-want) > 1e-12 {
		t.Errorf("0-byte delivery at %v, want %v", arrived, want)
	}
	if want <= 0 || want > 2e-6 {
		t.Errorf("EDR small-message latency %v outside the µs class", want)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	f := New(sim, Config{BandwidthGbps: 100, PropDelay: 0, SendOverhead: 0, RecvOverhead: 0})
	// 12.5 GB/s → 1 MB takes 80 µs.
	got := f.TransferTime(1 << 20)
	want := float64(1<<20) * 8 / 100e9
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
	a, b := f.Endpoint("a"), f.Endpoint("b")
	var arrived float64
	a.Send(b, 1<<20, func() { arrived = sim.Now() })
	pd.Run()
	if math.Abs(arrived-want) > 1e-12 {
		t.Errorf("1MB delivery at %v, want %v", arrived, want)
	}
}

func TestSenderSerializes(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	cfg := Config{BandwidthGbps: 1, PropDelay: 0, SendOverhead: 0, RecvOverhead: 0}
	f := New(sim, cfg)
	a, b := f.Endpoint("a"), f.Endpoint("b")
	var first, second float64
	// Two back-to-back 1 KB messages on a 1 Gbps link: 8 µs each, so the
	// second arrives at 16 µs.
	a.Send(b, 1000, func() { first = sim.Now() })
	a.Send(b, 1000, func() { second = sim.Now() })
	pd.Run()
	if math.Abs(first-8e-6) > 1e-12 {
		t.Errorf("first at %v, want 8µs", first)
	}
	if math.Abs(second-16e-6) > 1e-12 {
		t.Errorf("second at %v, want 16µs (serialized)", second)
	}
}

func TestDistinctSendersDoNotSerialize(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	cfg := Config{BandwidthGbps: 1, PropDelay: 0, SendOverhead: 0, RecvOverhead: 0}
	f := New(sim, cfg)
	dst := f.Endpoint("dst")
	var t1, t2 float64
	f.Endpoint("a").Send(dst, 1000, func() { t1 = sim.Now() })
	f.Endpoint("b").Send(dst, 1000, func() { t2 = sim.Now() })
	pd.Run()
	if math.Abs(t1-t2) > 1e-12 {
		t.Errorf("independent senders should deliver together: %v vs %v", t1, t2)
	}
}

func TestFIFODeliveryPerPair(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	f := New(sim, EDR())
	a, b := f.Endpoint("a"), f.Endpoint("b")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		a.Send(b, 100, func() { order = append(order, i) })
	}
	pd.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("RC semantics violated: %v", order)
		}
	}
}

func TestCounters(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	f := New(sim, EDR())
	a, b := f.Endpoint("a"), f.Endpoint("b")
	a.Send(b, 100, func() {})
	a.Send(b, 200, func() {})
	pd.Run()
	if f.MessagesSent() != 2 {
		t.Errorf("messages = %d", f.MessagesSent())
	}
	if f.BytesSent() != 300 {
		t.Errorf("bytes = %d", f.BytesSent())
	}
}

func TestEndpointIdentity(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	f := New(sim, EDR())
	if f.Endpoint("x") != f.Endpoint("x") {
		t.Error("endpoint lookup must be stable")
	}
	if f.Endpoint("x").name != "x" {
		t.Error("endpoint name wrong")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	f := New(sim, EDR())
	defer func() {
		if recover() == nil {
			t.Error("negative size should panic")
		}
	}()
	f.Endpoint("a").Send(f.Endpoint("b"), -1, func() {})
}

func TestSegmentationSplitsLargeMessages(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	cfg := EDR()
	cfg.MaxMessageBytes = 1000
	f := New(sim, cfg)
	a, b := f.Endpoint("a"), f.Endpoint("b")
	delivered := false
	a.Send(b, 2500, func() { delivered = true })
	pd.Run()
	if !delivered {
		t.Fatal("segmented message never delivered")
	}
	if f.MessagesSent() != 3 {
		t.Errorf("2500 bytes at 1000B segments sent %d messages, want 3", f.MessagesSent())
	}
	if f.BytesSent() != 2500 {
		t.Errorf("bytes sent = %d", f.BytesSent())
	}
}

func TestSegmentationCostsMoreThanOneShot(t *testing.T) {
	run := func(maxMsg int) float64 {
		pd := des.NewPartitioned(1, 1, 1e-6)
		sim := pd.Sim(0)
		cfg := EDR()
		cfg.MaxMessageBytes = maxMsg
		f := New(sim, cfg)
		var at float64
		f.Endpoint("a").Send(f.Endpoint("b"), 64<<10, func() { at = sim.Now() })
		pd.Run()
		return at
	}
	if run(4096) <= run(0) {
		t.Error("segmentation must add per-message overheads")
	}
}
