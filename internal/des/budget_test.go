package des

import "testing"

// The event budget is the engine's one watchdog. Ticks one virtual second
// apart on a one-second lookahead fill one window each, so the window-level
// check stops a runaway loop at exactly the budget.

func TestEventBudgetStopsRunawayLoop(t *testing.T) {
	pd, sim := newSim()
	pd.SetEventBudget(100)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		sim.After(1, tick) // self-rescheduling forever
	}
	sim.After(1, tick)
	pd.Run()
	if fired != 100 {
		t.Errorf("dispatched %d events, want exactly the budget of 100", fired)
	}
	if !pd.BudgetExhausted() {
		t.Error("BudgetExhausted must report true with events still pending")
	}
	if pd.Dispatched() != 100 {
		t.Errorf("Dispatched() = %d, want 100", pd.Dispatched())
	}
}

func TestEventBudgetNotExhaustedWhenDrained(t *testing.T) {
	pd, sim := newSim()
	pd.SetEventBudget(100)
	fired := 0
	for i := 0; i < 10; i++ {
		sim.After(float64(i)*1e-6, func() { fired++ })
	}
	pd.Run()
	if fired != 10 {
		t.Fatalf("fired %d events", fired)
	}
	if pd.BudgetExhausted() {
		t.Error("a drained queue under budget must not report exhaustion")
	}
}

func TestZeroBudgetMeansUnlimited(t *testing.T) {
	pd, sim := newSim()
	fired := 0
	for i := 0; i < 500; i++ {
		sim.After(float64(i)*1e-6, func() { fired++ })
	}
	pd.Run()
	if fired != 500 || pd.BudgetExhausted() {
		t.Errorf("unbudgeted run fired %d (exhausted=%v), want 500 events and no exhaustion",
			fired, pd.BudgetExhausted())
	}
	if pd.Dispatched() != 500 {
		t.Errorf("Dispatched() = %d, want 500", pd.Dispatched())
	}
}
