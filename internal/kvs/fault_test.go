package kvs

import (
	"fmt"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/mem"
)

// faultServer builds a server holding items keys on a one-partition engine.
func faultServer(t *testing.T, items, maxBatch int) (*des.Partitioned, *Server, [][]byte) {
	t.Helper()
	pd := des.NewPartitioned(1, 1, 1e-6)
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx, err := NewVerticalIndex(space, items, maxBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(pd.Sim(0), arch.SkylakeClusterB(), 2, maxBatch, idx, store)
	keys := make([][]byte, items)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%012d-xxxx", i))
		if _, err := srv.Set(keys[i], []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	return pd, srv, keys
}

func TestHandleMGetCrashWindowDropsSilently(t *testing.T) {
	pd, srv, keys := faultServer(t, 100, 32)
	spec, err := fault.ParseSpec("crash=100us:50us")
	if err != nil {
		t.Fatal(err)
	}
	srv.Faults = spec.NewPlan(1)
	// Advance the clock into the first down window [100us, 150us).
	pd.Sim(0).After(110e-6, func() {
		srv.HandleMGet(keys[:8], func(MGetResult) {
			t.Error("crashed server must drop the request, not answer it")
		})
	})
	pd.Run()
	if srv.CrashDrops != 1 {
		t.Errorf("CrashDrops = %d, want 1", srv.CrashDrops)
	}
	// Outside the window the server answers again (recovery).
	answered := false
	pd.Sim(0).After(60e-6, func() { // now+60us = 170us+, past the down window
		srv.HandleMGet(keys[:8], func(res MGetResult) {
			answered = true
			if res.Found != 8 {
				t.Errorf("recovered server found %d of 8", res.Found)
			}
		})
	})
	pd.Run()
	if !answered {
		t.Error("server did not recover after the crash window")
	}
}

func TestHandleMGetSlowdownStretchesService(t *testing.T) {
	baseline := func(plan *fault.Plan) float64 {
		pd, srv, keys := faultServer(t, 100, 32)
		srv.Faults = plan
		var done float64
		srv.HandleMGet(keys[:8], func(MGetResult) { done = pd.Sim(0).Now() })
		pd.Run()
		return done
	}
	spec, err := fault.ParseSpec("slow=4x@100us:99us")
	if err != nil {
		t.Fatal(err)
	}
	healthy := baseline(nil)
	// First period is always healthy (k>=1): at t≈0 the slowdown must NOT
	// apply yet, so service time matches the nil plan.
	if slowStart := baseline(spec.NewPlan(1)); slowStart != healthy {
		t.Errorf("slowdown applied during the first (healthy) period: %v vs %v", slowStart, healthy)
	}

	// Inside a slow window the same batch takes ~4x the service time.
	pd, srv, keys := faultServer(t, 100, 32)
	srv.Faults = spec.NewPlan(1)
	var start, done float64
	pd.Sim(0).After(110e-6, func() {
		start = pd.Sim(0).Now()
		srv.HandleMGet(keys[:8], func(MGetResult) { done = pd.Sim(0).Now() })
	})
	pd.Run()
	if srv.Slowdowns != 1 {
		t.Fatalf("Slowdowns = %d, want 1", srv.Slowdowns)
	}
	slowed := done - start
	if slowed < 3.5*healthy || slowed > 4.5*healthy {
		t.Errorf("slowed service %v, want ≈4x healthy %v", slowed, healthy)
	}
}

func TestHandleMGetChunksOversizedBatches(t *testing.T) {
	pd, srv, keys := faultServer(t, 100, 8) // maxBatch 8 < len(batch)
	var res MGetResult
	fired := 0
	srv.HandleMGet(keys[:30], func(r MGetResult) { res = r; fired++ })
	pd.Run()
	if fired != 1 {
		t.Fatalf("done fired %d times", fired)
	}
	if len(res.Values) != 30 || res.Found != 30 {
		t.Fatalf("chunked MGet found %d with %d values, want 30/30", res.Found, len(res.Values))
	}
	for i, v := range res.Values {
		if string(v) != "value" {
			t.Fatalf("value %d = %q", i, v)
		}
	}
}

func TestApplyPressureIsTransient(t *testing.T) {
	_, srv, keys := faultServer(t, 100, 32)
	before := liveItems(srv.Store)
	inserted, failed := srv.ApplyPressure(16)
	if inserted != 16 || failed != 0 {
		t.Fatalf("ApplyPressure = (%d, %d), want (16, 0)", inserted, failed)
	}
	if got := liveItems(srv.Store); got != before {
		t.Errorf("store count %d after pressure, want %d (items must be removed again)", got, before)
	}
	if srv.PressureInserted != 16 {
		t.Errorf("PressureInserted = %d", srv.PressureInserted)
	}
	// The resident keys survive the spike.
	for _, k := range keys[:10] {
		if _, ok := srv.Get(k); !ok {
			t.Fatalf("key %q lost to pressure spike", k)
		}
	}
}
