package des

import (
	"errors"
	"strings"
	"testing"

	"simdhtbench/internal/obs"
)

func TestEventOrdering(t *testing.T) {
	pd, s := newSim()
	var order []int
	s.At(3.0, func() { order = append(order, 3) })
	s.At(1.0, func() { order = append(order, 1) })
	s.At(2.0, func() { order = append(order, 2) })
	pd.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3.0 {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	pd, s := newSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1.0, func() { order = append(order, i) })
	}
	pd.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	pd, s := newSim()
	var at float64
	s.At(5.0, func() {
		s.After(2.5, func() { at = s.Now() })
	})
	pd.Run()
	if at != 7.5 {
		t.Errorf("After fired at %v, want 7.5", at)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	pd, s := newSim()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth++; depth < 100 {
			s.After(1, recurse)
		}
	}
	s.After(0, recurse)
	pd.Run()
	if depth != 100 {
		t.Errorf("depth = %d", depth)
	}
	if s.Now() != 99 {
		t.Errorf("final time = %v", s.Now())
	}
}

// TestRunUntil pins the window step every run goes through: runBefore
// dispatches the events below its limit, leaves the clock at the last one
// it ran, and keeps the rest pending.
func TestRunUntil(t *testing.T) {
	_, s := newSim()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(2, func() { fired++ })
	s.At(3, func() { fired++ })
	if n := s.runBefore(2.5); n != 2 {
		t.Errorf("runBefore ran %d events, want 2", n)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if s.Now() != 2 {
		t.Errorf("Now = %v, want 2", s.Now())
	}
	if next, ok := s.NextEventAt(); !ok || next != 3 {
		t.Errorf("next event = %v (pending %v), want 3", next, ok)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	pd, s := newSim()
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past should panic")
			}
		}()
		s.At(1, func() {})
	})
	pd.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	_, s := newSim()
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	s.After(-1, func() {})
}

func TestResourceImmediateGrant(t *testing.T) {
	pd, s := newSim()
	r := NewResource(s, 2)
	granted := 0
	r.Acquire(func() { granted++ })
	r.Acquire(func() { granted++ })
	pd.Run()
	if granted != 2 {
		t.Errorf("granted = %d", granted)
	}
	if r.inUse != 2 {
		t.Errorf("in use = %d", r.inUse)
	}
}

func TestResourceQueuesBeyondCapacity(t *testing.T) {
	pd, s := newSim()
	r := NewResource(s, 1)
	var events []string
	r.Acquire(func() {
		events = append(events, "first")
		s.After(10, func() { r.Release() })
	})
	r.Acquire(func() {
		events = append(events, "second")
		r.Release()
	})
	pd.Run()
	if len(events) != 2 || events[0] != "first" || events[1] != "second" {
		t.Errorf("events = %v", events)
	}
	if r.QueueHighWater() != 1 {
		t.Errorf("queue high water = %d, want 1", r.QueueHighWater())
	}
	if r.inUse != 0 {
		t.Errorf("in use after drain = %d", r.inUse)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	pd, s := newSim()
	r := NewResource(s, 1)
	var order []int
	r.Acquire(func() { s.After(1, r.Release) })
	for i := 0; i < 5; i++ {
		i := i
		r.Acquire(func() {
			order = append(order, i)
			s.After(1, r.Release)
		})
	}
	pd.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("queue not FIFO: %v", order)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	pd, s := newSim()
	r := NewResource(s, 1)
	r.Acquire(func() {
		s.After(5, r.Release)
	})
	s.At(10, func() {}) // extend the horizon to 10s
	pd.Run()
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	_, s := newSim()
	r := NewResource(s, 1)
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire should panic")
		}
	}()
	r.Release()
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-capacity resource should panic")
		}
	}()
	NewResource(&Sim{}, 0)
}

func TestResourceOnWaitReportsQueueDelay(t *testing.T) {
	pd, s := newSim()
	r := NewResource(s, 1)
	var waits []float64
	r.OnWait = func(sec float64) { waits = append(waits, sec) }
	// Holder takes the unit for 5s; a second request arrives at t=2 and is
	// granted at t=5 — a 3s queue wait.
	r.Acquire(func() {
		s.After(5, r.Release)
	})
	s.At(2, func() {
		r.Acquire(func() { r.Release() })
	})
	pd.Run()
	if len(waits) != 1 {
		t.Fatalf("OnWait fired %d times, want 1", len(waits))
	}
	if waits[0] != 3 {
		t.Errorf("queue wait = %v, want 3", waits[0])
	}
}

func TestOfferUnboundedNeverRejects(t *testing.T) {
	pd, s := newSim()
	r := NewResource(s, 1)
	granted := 0
	for i := 0; i < 10; i++ {
		if err := r.Offer(func() {
			granted++
			s.After(1, r.Release)
		}); err != nil {
			t.Fatalf("unbounded Offer rejected: %v", err)
		}
	}
	pd.Run()
	if granted != 10 {
		t.Errorf("granted = %d, want 10", granted)
	}
	if r.Rejected() != 0 {
		t.Errorf("rejected = %d, want 0", r.Rejected())
	}
}

func TestOfferRejectsAtMaxQueue(t *testing.T) {
	pd, s := newSim()
	r := NewResource(s, 1)
	r.SetMaxQueue(2)
	granted := 0
	take := func() {
		granted++
		s.After(1, r.Release)
	}
	// One holder + two queued fill the bound; the 4th and 5th are shed.
	var errs []error
	for i := 0; i < 5; i++ {
		errs = append(errs, r.Offer(take))
	}
	for i, err := range errs[:3] {
		if err != nil {
			t.Fatalf("Offer %d rejected below bound: %v", i, err)
		}
	}
	for i, err := range errs[3:] {
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("Offer %d = %v, want ErrQueueFull", 3+i, err)
		}
	}
	pd.Run()
	if granted != 3 {
		t.Errorf("granted = %d, want 3", granted)
	}
	if r.Rejected() != 2 {
		t.Errorf("Rejected = %d, want 2", r.Rejected())
	}
	if r.QueueHighWater() != 2 {
		t.Errorf("QueueHighWater = %d, want 2", r.QueueHighWater())
	}
}

func TestOfferAdmitsAgainAfterDrain(t *testing.T) {
	pd, s := newSim()
	r := NewResource(s, 1)
	r.SetMaxQueue(1)
	served := 0
	take := func() {
		served++
		s.After(1, r.Release)
	}
	if err := r.Offer(take); err != nil { // holder
		t.Fatal(err)
	}
	if err := r.Offer(take); err != nil { // queued (at bound)
		t.Fatal(err)
	}
	if err := r.Offer(take); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Offer at full queue = %v, want ErrQueueFull", err)
	}
	// After the queue drains, admission opens up again.
	s.At(5, func() {
		if err := r.Offer(take); err != nil {
			t.Errorf("Offer after drain rejected: %v", err)
		}
	})
	pd.Run()
	if served != 3 {
		t.Errorf("served = %d, want 3", served)
	}
}

func TestSetMaxQueueZeroRestoresUnbounded(t *testing.T) {
	pd, s := newSim()
	r := NewResource(s, 1)
	r.SetMaxQueue(1)
	r.SetMaxQueue(0)
	if r.maxQueue != 0 {
		t.Fatalf("max queue = %d, want 0", r.maxQueue)
	}
	for i := 0; i < 4; i++ {
		if err := r.Offer(func() { s.After(1, r.Release) }); err != nil {
			t.Fatalf("Offer with bound cleared rejected: %v", err)
		}
	}
	pd.Run()
	if r.QueueHighWater() != 3 {
		t.Errorf("QueueHighWater = %d, want 3", r.QueueHighWater())
	}
}

func TestHeartbeatTicksPerEvent(t *testing.T) {
	pd, s := newSim()
	var b strings.Builder
	s.Heartbeat = obs.NewHeartbeat(5, &b)
	for i := 0; i < 5; i++ {
		s.After(float64(i), func() {})
	}
	pd.Run()
	if !strings.Contains(b.String(), "heartbeat: ticks=5 virtual=4") {
		t.Errorf("want one heartbeat line at the fifth event (one tick per dispatched event), got:\n%s", b.String())
	}
}

// newSim returns a one-partition engine and its Sim. Its single partition
// pops the heap in the order a serial event loop would.
func newSim() (*Partitioned, *Sim) {
	pd := NewPartitioned(1, 1, 1)
	return pd, pd.Sim(0)
}
