package des

import (
	"fmt"
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

// buildPingPong wires a P-partition engine where every partition runs a
// local event chain and periodically posts cross-partition messages to its
// neighbor, recording each dispatch into a per-partition log (single
// writer). Equal-timestamp cross sends from different partitions exercise
// the canonical tie-break.
func buildPingPong(parts, workers int, rounds int) (*Partitioned, [][]string) {
	const lookahead = 1e-6
	pd := NewPartitioned(parts, workers, lookahead)
	logs := make([][]string, parts)
	// hop(p, r) builds the event that runs ON partition p at round r: it logs
	// into p's own slice (single writer), schedules a local successor inside
	// the window, and posts round r+1 to the neighbor exactly one lookahead
	// out — the tightest legal arrival, always a window-boundary tie across
	// partitions.
	var hop func(p, r int) func()
	hop = func(p, r int) func() {
		return func() {
			logs[p] = append(logs[p], fmt.Sprintf("p%d r%d t%.9f", p, r, pd.Sim(p).Now()))
			if r >= rounds {
				return
			}
			pd.Sim(p).After(lookahead/4, func() {
				logs[p] = append(logs[p], fmt.Sprintf("p%d r%d local", p, r))
			})
			dst := (p + 1) % parts
			pd.Post(p, dst, pd.Sim(p).Now()+lookahead, hop(dst, r+1))
		}
	}
	for p := 0; p < parts; p++ {
		pd.Sim(p).At(float64(p)*lookahead/8, hop(p, 0))
	}
	return pd, logs
}

// TestPartitionedDeterministicAcrossWorkers pins the engine's core
// guarantee: the executed event order — including cross-partition
// timestamp ties — is identical at any host worker count.
func TestPartitionedDeterministicAcrossWorkers(t *testing.T) {
	const parts, rounds = 5, 40
	ref, refLogs := buildPingPong(parts, 1, rounds)
	ref.Run()
	for _, workers := range []int{2, 3, 5} {
		pd, logs := buildPingPong(parts, workers, rounds)
		pd.Run()
		if pd.Dispatched() != ref.Dispatched() {
			t.Fatalf("workers=%d dispatched %d, want %d", workers, pd.Dispatched(), ref.Dispatched())
		}
		for p := range logs {
			if len(logs[p]) != len(refLogs[p]) {
				t.Fatalf("workers=%d partition %d ran %d events, want %d", workers, p, len(logs[p]), len(refLogs[p]))
			}
			for i := range logs[p] {
				if logs[p][i] != refLogs[p][i] {
					t.Fatalf("workers=%d partition %d event %d = %q, want %q", workers, p, i, logs[p][i], refLogs[p][i])
				}
			}
		}
	}
}

// TestPartitionedBudgetResumable pins the satellite-5 contract at the
// engine level: budget exhaustion stops every partition at the same window
// boundary, leaving the horizon protocol consistent — so raising the budget
// and calling Run again continues exactly where a fresh run with the larger
// budget would be.
func TestPartitionedBudgetResumable(t *testing.T) {
	const parts, rounds = 4, 60
	one, oneLogs := buildPingPong(parts, 2, rounds)
	one.SetEventBudget(5000)
	one.Run()

	two, twoLogs := buildPingPong(parts, 2, rounds)
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
	for p := range oneLogs {
		if len(oneLogs[p]) != len(twoLogs[p]) {
			t.Fatalf("partition %d: resumed ran %d events, fresh %d", p, len(twoLogs[p]), len(oneLogs[p]))
		}
		for i := range oneLogs[p] {
			if oneLogs[p][i] != twoLogs[p][i] {
				t.Fatalf("partition %d event %d: resumed %q, fresh %q", p, i, twoLogs[p][i], oneLogs[p][i])
			}
		}
	}
}

// TestPartitionedBudgetExhausted mirrors the serial watchdog test: a
// runaway loop stops at (or just past — window granularity) the budget,
// deterministically at any worker count.
func TestPartitionedBudgetExhausted(t *testing.T) {
	var counts []uint64
	for _, workers := range []int{1, 2} {
		pd := NewPartitioned(2, workers, 1e-6)
		for p := 0; p < 2; p++ {
			p := p
			var tick func()
			tick = func() { pd.Sim(p).After(1e-6, tick) }
			pd.Sim(p).After(1e-6, tick)
		}
		pd.SetEventBudget(100)
		pd.Run()
		if !pd.BudgetExhausted() {
			t.Fatalf("workers=%d: BudgetExhausted must report true", workers)
		}
		if pd.Dispatched() < 100 {
			t.Fatalf("workers=%d: dispatched %d, want >= budget 100", workers, pd.Dispatched())
		}
		counts = append(counts, pd.Dispatched())
	}
	if counts[0] != counts[1] {
		t.Fatalf("budget cutoff diverges across workers: %v", counts)
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
// the window loop: once outboxes, merge scratch and event heaps have
// reached their high-water marks, a window with a cross-partition send
// allocates nothing (single-worker engine; the worker channels are a
// per-Run, not per-window, cost).
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
