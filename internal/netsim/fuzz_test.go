package netsim

import (
	"math"
	"testing"

	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
)

// FuzzNetsimDeliver hammers the fabric's delivery path — segmentation,
// serializing NIC, fault injection — with arbitrary message-size streams and
// fault probabilities. Invariants: the simulation always drains, every sent
// message is accounted exactly once as delivered or dropped (plus one extra
// delivery per duplication), and no payload size or probability combination
// panics.
func FuzzNetsimDeliver(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 64, 255}, 0.0, 0.0, 0.0)
	f.Add(int64(7), []byte{128, 128, 128}, 0.5, 0.5, 0.5)
	f.Add(int64(42), []byte{255, 0, 255, 0, 17}, 1.0, 0.0, 1.0)
	f.Add(int64(-3), []byte{}, 0.0, 1.0, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, sizes []byte, drop, dup, delayp float64) {
		if len(sizes) > 256 {
			sizes = sizes[:256]
		}
		clamp := func(p float64) float64 {
			if math.IsNaN(p) || p < 0 {
				return 0
			}
			if p > 1 {
				return 1
			}
			return p
		}
		spec := fault.Spec{
			Drop: clamp(drop), Dup: clamp(dup),
			DelayProb: clamp(delayp), Delay: 1e-6,
		}
		sim := des.New()
		fab := New(sim, EDR())
		fab.SetPartitionFaults(0, spec.NewPlan(seed), nil)
		a, b := fab.Endpoint("a"), fab.Endpoint("b")
		delivered, sent := 0, 0
		for i, s := range sizes {
			// Sizes span zero bytes through multi-segment messages
			// (MaxMessageBytes boundary at 4 KB for EDR).
			size := int(s) * 37
			if i%3 == 0 {
				size *= 64
			}
			a.Send(b, size, func() { delivered++ })
			sent++
		}
		// A runaway injection layer must not outlive the budget either.
		sim.SetEventBudget(uint64(len(sizes))*64 + 1024)
		sim.Run()
		if sim.BudgetExhausted() {
			t.Fatalf("fabric did not drain within budget: %d sizes", len(sizes))
		}
		// Drop/dup decisions are per logical message (MessagesSent counts
		// segments), so account against the Send-call count.
		want := sent - int(fab.MessagesDropped()) + int(fab.MessagesDuplicated())
		if delivered != want {
			t.Fatalf("delivered %d, want sent %d - dropped %d + duplicated %d = %d",
				delivered, sent, fab.MessagesDropped(), fab.MessagesDuplicated(), want)
		}
	})
}
