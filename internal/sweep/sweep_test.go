package sweep

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simdhtbench/internal/obs"
)

func squareJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("sq%d", i),
			Run:   func() (int, error) { return i * i, nil },
		}
	}
	return jobs
}

func TestResultsInCanonicalOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		out, stats, err := Run(workers, squareJobs(37))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 37 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if stats == nil || len(stats.Jobs) != 37 {
			t.Fatalf("workers=%d: missing stats", workers)
		}
	}
}

func TestWorkerCountClamps(t *testing.T) {
	_, stats, err := Run(100, squareJobs(5))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 5 {
		t.Errorf("workers clamped to %d, want 5 (job count)", stats.Workers)
	}
	_, stats, err = Run(-3, squareJobs(5))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers < 1 {
		t.Errorf("negative worker request yielded %d workers", stats.Workers)
	}
}

func TestEmptyJobList(t *testing.T) {
	out, stats, err := Run[int](4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || len(stats.Jobs) != 0 {
		t.Errorf("empty sweep returned %d results, %d stats", len(out), len(stats.Jobs))
	}
}

// TestLowestIndexErrorWins checks the deterministic error contract: no
// matter which failing job finishes first in wall-clock time, the reported
// error is the lowest-indexed one — what a sequential loop would hit first.
func TestLowestIndexErrorWins(t *testing.T) {
	errA := errors.New("boom-3")
	errB := errors.New("boom-7")
	jobs := make([]Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Label: fmt.Sprintf("j%d", i), Run: func() (int, error) {
			switch i {
			case 3:
				// Fail late so a naive "first error observed" implementation
				// would report job 7 instead.
				time.Sleep(20 * time.Millisecond)
				return 0, errA
			case 7:
				return 0, errB
			default:
				return i, nil
			}
		}}
	}
	for _, workers := range []int{1, 4} {
		_, _, err := Run(workers, jobs)
		if !errors.Is(err, errA) {
			t.Errorf("workers=%d: got %v, want wrapped %v", workers, err, errA)
		}
		if err != nil && !strings.Contains(err.Error(), "j3") {
			t.Errorf("workers=%d: error %q does not name the failing job", workers, err)
		}
	}
}

// TestPanicRecoveredAsTypedError checks that a poisoned configuration —
// one whose Run panics — surfaces as a *PanicError naming the job while the
// other jobs' results survive in canonical order.
func TestPanicRecoveredAsTypedError(t *testing.T) {
	const poisoned = 5
	jobs := make([]Job[int], 12)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Label: fmt.Sprintf("cfg%d", i), Run: func() (int, error) {
			if i == poisoned {
				panic("poisoned config")
			}
			return i * i, nil
		}}
	}
	for _, workers := range []int{1, 4} {
		out, stats, err := Run(workers, jobs)
		if err == nil {
			t.Fatalf("workers=%d: poisoned sweep reported no error", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v is not a *PanicError", workers, err)
		}
		if pe.Index != poisoned || pe.Label != "cfg5" {
			t.Errorf("workers=%d: PanicError identifies job %d (%s), want %d (cfg5)",
				workers, pe.Index, pe.Label, poisoned)
		}
		if pe.Value != "poisoned config" {
			t.Errorf("workers=%d: recovered value %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
		if !strings.Contains(err.Error(), "cfg5") {
			t.Errorf("workers=%d: error %q does not name the failing job", workers, err)
		}
		// The healthy configurations' results are preserved, in order.
		if len(out) != len(jobs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), len(jobs))
		}
		for i, v := range out {
			want := i * i
			if i == poisoned {
				want = 0
			}
			if v != want {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, want)
			}
		}
		if len(stats.Jobs) != len(jobs) {
			t.Errorf("workers=%d: stats lost jobs: %d", workers, len(stats.Jobs))
		}
	}
}

// TestPanicDoesNotKillWorkers runs many panicking jobs on few workers: every
// job must still execute (a dead worker goroutine would strand the queue).
func TestPanicDoesNotKillWorkers(t *testing.T) {
	var ran atomic.Int64
	jobs := make([]Job[int], 20)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Label: fmt.Sprintf("p%d", i), Run: func() (int, error) {
			ran.Add(1)
			if i%2 == 0 {
				panic(i)
			}
			return i, nil
		}}
	}
	_, _, err := Run(2, jobs)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Fatalf("want *PanicError for job 0, got %v", err)
	}
	if got := ran.Load(); got != 20 {
		t.Errorf("ran %d jobs, want 20", got)
	}
}

// TestParallelExecutionSharesNothing hammers the pool with jobs that only
// touch their own state; under -race this verifies the runner itself
// introduces no sharing between jobs.
func TestParallelExecutionSharesNothing(t *testing.T) {
	var started atomic.Int64
	jobs := make([]Job[uint64], 200)
	for i := range jobs {
		i := i
		jobs[i] = Job[uint64]{Label: fmt.Sprintf("rng%d", i), Run: func() (uint64, error) {
			started.Add(1)
			rng := rand.New(rand.NewSource(int64(i)))
			var sum uint64
			for k := 0; k < 1000; k++ {
				sum += rng.Uint64()
			}
			return sum, nil
		}}
	}
	seq, _, err := Run(1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := Run(8, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("job %d: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
	if got := started.Load(); got != 400 {
		t.Errorf("ran %d jobs, want 400", got)
	}
}

func TestStatsTiming(t *testing.T) {
	jobs := make([]Job[int], 4)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Label: fmt.Sprintf("sleep%d", i), Run: func() (int, error) {
			time.Sleep(5 * time.Millisecond)
			return i, nil
		}}
	}
	_, stats, err := Run(2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
	if stats.SerialWall() < 4*5*time.Millisecond {
		t.Errorf("serial wall %v below the guaranteed sleep total", stats.SerialWall())
	}
	for i, j := range stats.Jobs {
		if j.Index != i {
			t.Errorf("stat %d carries index %d", i, j.Index)
		}
		if j.Wall <= 0 {
			t.Errorf("job %d recorded no wall time", i)
		}
		if j.Worker < 0 || j.Worker >= stats.Workers {
			t.Errorf("job %d ran on worker %d of %d", i, j.Worker, stats.Workers)
		}
	}
	if stats.Speedup() <= 0 {
		t.Error("speedup not computed")
	}
	reg := obs.NewRegistry()
	stats.Record(reg)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "sweep_job_wall_ms{"); n != 4 {
		t.Errorf("stats record %d per-job wall times, want 4:\n%s", n, b.String())
	}
}
