package des

import (
	"fmt"
	"runtime"
	"testing"
)

// TestEventHeapFIFOTieBreak pins the heap's tie-break invariant the
// partitioned engine's canonical merge relies on: events scheduled with
// equal timestamps dispatch in insertion order, at any heap size. The
// schedule interleaves a handful of repeated timestamps in a deliberately
// non-sorted pattern so sift-up and sift-down both get exercised at every
// size.
func TestEventHeapFIFOTieBreak(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 64, 257, 1024} {
		pd, sim := newSim()
		type tag struct {
			at  float64
			idx int
		}
		var got []tag
		next := make(map[float64]int) // per-timestamp insertion counter
		for i := 0; i < n; i++ {
			// Five timestamps cycled out of order: ties pile up fast and
			// arrive interleaved with earlier and later times.
			at := float64([]int{3, 1, 4, 1, 5}[i%5]) * 1e-6
			idx := next[at]
			next[at] = idx + 1
			sim.At(at, func() { got = append(got, tag{at: at, idx: idx}) })
		}
		pd.Run()
		if len(got) != n {
			t.Fatalf("n=%d: dispatched %d events", n, len(got))
		}
		lastAt := -1.0
		lastIdx := make(map[float64]int)
		for i, g := range got {
			if g.at < lastAt {
				t.Fatalf("n=%d: event %d at %g dispatched after %g", n, i, g.at, lastAt)
			}
			lastAt = g.at
			if want, ok := lastIdx[g.at]; ok && g.idx != want {
				t.Fatalf("n=%d: timestamp %g dispatched insertion %d, want %d (FIFO)", n, g.at, g.idx, want)
			}
			lastIdx[g.at] = g.idx + 1
		}
	}
}

// TestRunUntilBudgetExhausted is the regression for a budget exhausted
// mid-run: the loop must stop rather than spin on a head event it may not
// dispatch, report exhaustion, leave the clock at the last dispatched event
// and keep the next one pending, so a resumed Run continues from there.
func TestRunUntilBudgetExhausted(t *testing.T) {
	pd, sim := newSim()
	pd.SetEventBudget(10)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		sim.After(1, tick)
	}
	sim.After(1, tick)
	pd.Run()
	if fired != 10 {
		t.Errorf("dispatched %d events, want the budget of 10", fired)
	}
	if !pd.BudgetExhausted() {
		t.Error("BudgetExhausted must report true")
	}
	if sim.Now() != 10 {
		t.Errorf("Now() = %g, want the last dispatched event at 10", sim.Now())
	}
	if next, ok := sim.NextEventAt(); !ok || next != 11 {
		t.Errorf("next event = %g (pending %v), want 11", next, ok)
	}
}

// buildPingPong wires a ping-pong program onto a P-partition engine: every
// partition runs a local event chain and periodically posts
// cross-partition messages to its neighbor, recording each dispatch into a
// per-partition log. Equal-timestamp cross sends from different partitions
// exercise the canonical tie-break.
func buildPingPong(e engine, parts, rounds int) [][]string {
	const lookahead = 1e-6
	logs := make([][]string, parts)
	// hop(p, r) builds the event that runs ON partition p at round r: it logs
	// into p's own slice, schedules a local successor inside the window, and
	// posts round r+1 to the neighbor exactly one lookahead out — the
	// tightest legal arrival, always a window-boundary tie across
	// partitions.
	var hop func(p, r int) func()
	hop = func(p, r int) func() {
		return func() {
			logs[p] = append(logs[p], fmt.Sprintf("p%d r%d t%.9f", p, r, e.Sim(p).Now()))
			if r >= rounds {
				return
			}
			e.Sim(p).After(lookahead/4, func() {
				logs[p] = append(logs[p], fmt.Sprintf("p%d r%d local", p, r))
			})
			dst := (p + 1) % parts
			e.Post(p, dst, e.Sim(p).Now()+lookahead, hop(dst, r+1))
		}
	}
	for p := 0; p < parts; p++ {
		e.Sim(p).At(float64(p)*lookahead/8, hop(p, 0))
	}
	return logs
}

// checkLogs fails unless two runs' per-partition logs are identical.
func checkLogs(t *testing.T, label string, got, want [][]string) {
	t.Helper()
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("%s: partition %d ran %d events, want %d", label, p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("%s: partition %d event %d = %q, want %q", label, p, i, got[p][i], want[p][i])
			}
		}
	}
}

// TestPartitionedDeterministicAcrossWorkers pins the engine's executed
// event order, including cross-partition timestamp ties, to the reference
// merge (refPartitioned), whatever workers value NewPartitioned is given:
// the argument is ignored.
func TestPartitionedDeterministicAcrossWorkers(t *testing.T) {
	const parts, rounds = 5, 40
	ref := newRefPartitioned(parts, 1e-6)
	refLogs := buildPingPong(ref, parts, rounds)
	ref.Run()
	for _, workers := range []int{1, 2, 3, 5} {
		pd := NewPartitioned(parts, workers, 1e-6)
		logs := buildPingPong(pd, parts, rounds)
		pd.Run()
		if pd.Dispatched() != ref.Dispatched() {
			t.Fatalf("workers=%d dispatched %d, want %d", workers, pd.Dispatched(), ref.Dispatched())
		}
		checkLogs(t, fmt.Sprintf("workers=%d", workers), logs, refLogs)
	}
}

// TestPartitionedRunsOnCallingGoroutine: Run starts no goroutine, even on an
// engine built with more partitions and a workers argument above one. Every
// event sees the goroutine count from before Run.
func TestPartitionedRunsOnCallingGoroutine(t *testing.T) {
	pd := NewPartitioned(9, 8, 1e-6)
	before := runtime.NumGoroutine()
	seen := 0
	for p := 0; p < pd.Parts(); p++ {
		for i := 0; i < 3; i++ {
			pd.Sim(p).At(float64(i)*1e-6, func() {
				if n := runtime.NumGoroutine(); n != before {
					t.Errorf("partition %d event saw %d goroutines, %d before Run", p, n, before)
				}
				seen++
			})
		}
	}
	pd.Run()
	if seen != 27 {
		t.Fatalf("ran %d of 27 events", seen)
	}
}

// TestPartitionedBudgetResumable pins the engine's budget contract: budget
// exhaustion stops every partition at the same window boundary, leaving the
// horizon protocol consistent — so raising the budget and calling Run again
// continues exactly where a fresh run with the larger budget would be.
func TestPartitionedBudgetResumable(t *testing.T) {
	const parts, rounds = 4, 60
	one := NewPartitioned(parts, 1, 1e-6)
	oneLogs := buildPingPong(one, parts, rounds)
	one.SetEventBudget(5000)
	one.Run()

	two := NewPartitioned(parts, 1, 1e-6)
	twoLogs := buildPingPong(two, parts, rounds)
	two.SetEventBudget(100)
	two.Run()
	if !two.BudgetExhausted() {
		t.Fatal("small budget must exhaust")
	}
	two.SetEventBudget(5000)
	two.Run()

	if one.Dispatched() != two.Dispatched() {
		t.Fatalf("resumed run dispatched %d, fresh run %d", two.Dispatched(), one.Dispatched())
	}
	checkLogs(t, "resumed", twoLogs, oneLogs)
	if two.BudgetExhausted() {
		t.Error("BudgetExhausted still reports true after a resumed run drained every event")
	}
}

// TestPartitionedBudgetExhausted mirrors the serial watchdog test: a
// runaway loop stops at (or just past — window granularity) the budget, at
// the same event count as the reference engine.
func TestPartitionedBudgetExhausted(t *testing.T) {
	var counts []uint64
	for _, e := range []engine{NewPartitioned(2, 1, 1e-6), newRefPartitioned(2, 1e-6)} {
		for p := 0; p < 2; p++ {
			var tick func()
			tick = func() { e.Sim(p).After(1e-6, tick) }
			e.Sim(p).After(1e-6, tick)
		}
		e.SetEventBudget(100)
		e.Run()
		if !e.BudgetExhausted() {
			t.Fatalf("%T: BudgetExhausted must report true", e)
		}
		if e.Dispatched() < 100 {
			t.Fatalf("%T: dispatched %d, want >= budget 100", e, e.Dispatched())
		}
		counts = append(counts, e.Dispatched())
	}
	if counts[0] != counts[1] {
		t.Fatalf("budget cutoff %d diverges from the reference's %d", counts[0], counts[1])
	}
}

// TestPostLookaheadViolationPanics pins the engine's defense: a
// cross-partition event landing inside the current window means the
// caller's latency model undercuts the lookahead.
func TestPostLookaheadViolationPanics(t *testing.T) {
	pd := NewPartitioned(2, 1, 1e-6)
	pd.Sim(0).At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Post inside the window must panic")
			}
		}()
		pd.Post(0, 1, pd.Sim(0).Now(), func() {})
	})
	pd.Run()
}

// TestPartitionedMergeAllocs pins the steady-state allocation contract of
// the window loop: once the outbox and the event heaps have reached their
// high-water marks, a window with a cross-partition send allocates nothing.
func TestPartitionedMergeAllocs(t *testing.T) {
	pd := NewPartitioned(2, 1, 1e-6)
	deliver := func() {}
	var post func()
	post = func() {
		pd.Post(0, 1, pd.Sim(0).Now()+1e-6, deliver)
	}
	step := func() {
		pd.Sim(0).At(pd.Sim(0).Now(), post)
		pd.Run()
	}
	for i := 0; i < 100; i++ {
		step() // reach the high-water mark
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("steady-state window allocates %.1f times, want 0", allocs)
	}
}
