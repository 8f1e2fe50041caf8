package netsim

import (
	"testing"

	"simdhtbench/internal/des"
)

// TestSendFaultFreeAllocFree pins the fault-free Send fast path at zero
// allocations per message: segmentation, NIC serialization, and event
// scheduling all run in reused storage (the DES value heap keeps its
// capacity across drains). The deliver closure is hoisted outside the
// measured function — allocating the callback is the caller's business; the
// fabric and scheduler must add nothing.
func TestSendFaultFreeAllocFree(t *testing.T) {
	pd := des.NewPartitioned(1, 1, 1e-6)
	sim := pd.Sim(0)
	f := New(sim, EDR())
	a := f.Endpoint("client")
	b := f.Endpoint("server")
	delivered := 0
	deliver := func() { delivered++ }

	allocs := testing.AllocsPerRun(100, func() {
		a.Send(b, 4096, deliver)
		a.Send(b, 64<<10, deliver) // segmented: 8 messages
		pd.Run()
	})
	if allocs != 0 {
		t.Fatalf("fault-free Send allocates %.1f times per round; want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("no deliveries observed")
	}
}
