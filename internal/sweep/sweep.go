// Package sweep runs independent experiment configurations across a pool
// of worker goroutines and merges the results back in canonical order.
//
// Every experiment table in this repository is a sweep over configurations
// (layouts, table sizes, access patterns, backends) whose runs share no
// simulated state: each job builds its own engine.Engine, mem.AddressSpace
// and seeded RNGs. The runner exploits that independence for wall-clock
// speed while keeping the results — and therefore the rendered tables —
// bit-identical to a sequential loop:
//
//   - results are returned indexed by job position, not completion order;
//   - errors are reported for the lowest-indexed failing job, matching the
//     error a sequential loop would surface first;
//   - with Workers == 1 the jobs run inline on the calling goroutine, which
//     is exactly the pre-sweep sequential behaviour.
//
// Per-job queue and wall-clock timings are collected into a Stats value
// that records into an obs.Registry, so the parallel speedup is observable
// (see the -sweepstats flag of cmd/simdhtbench and cmd/kvsbench).
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"simdhtbench/internal/obs"
)

// PanicError is the typed error a job that panicked resolves to: the sweep
// recovers the panic on the worker goroutine (so one poisoned configuration
// cannot take down the whole sweep or lose the other jobs' results) and
// records which job failed, the recovered value, and the stack at the point
// of the panic.
type PanicError struct {
	Index int    // canonical job position in the sweep
	Label string // Job.Label of the panicking job
	Value any    // the recovered panic value
	Stack []byte // stack trace captured inside recover
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v", e.Value)
}

// Job is one independent unit of a sweep: a closure producing a value, plus
// a label for the timing report.
type Job[T any] struct {
	Label string
	Run   func() (T, error)
}

// JobStat records how one job moved through the pool.
type JobStat struct {
	Index  int           // canonical position in the sweep
	Label  string        // Job.Label
	Worker int           // worker goroutine that executed the job
	Queue  time.Duration // sweep start → job start (time spent queued)
	Wall   time.Duration // job start → job finish
}

// Stats describes one sweep: the pool shape, the total elapsed wall clock,
// and the per-job timings in canonical order.
type Stats struct {
	Workers int
	Elapsed time.Duration
	Jobs    []JobStat
}

// SerialWall returns the summed per-job wall time — the time a sequential
// loop over the same jobs would have taken.
func (s *Stats) SerialWall() time.Duration {
	var total time.Duration
	for _, j := range s.Jobs {
		total += j.Wall
	}
	return total
}

// Speedup returns SerialWall divided by the observed elapsed time.
func (s *Stats) Speedup() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.SerialWall()) / float64(s.Elapsed)
}

// Record publishes the sweep timings onto an obs registry as profiling
// metrics (sweep_* series, one labeled gauge per job). Like Table, the
// values are wall-clock and belong on stderr or in a profiling dump —
// never merged into a deterministic -metrics artifact.
func (s *Stats) Record(reg *obs.Registry) {
	reg.Gauge("sweep_workers").Set(float64(s.Workers))
	reg.Counter("sweep_jobs_total").Add(uint64(len(s.Jobs)))
	reg.Gauge("sweep_elapsed_ms").Set(s.Elapsed.Seconds() * 1e3)
	reg.Gauge("sweep_serial_ms").Set(s.SerialWall().Seconds() * 1e3)
	reg.Gauge("sweep_speedup").Set(s.Speedup())
	for _, j := range s.Jobs {
		label := obs.Label{Key: "job", Value: fmt.Sprintf("%03d %s", j.Index, j.Label)}
		reg.Gauge("sweep_job_wall_ms", label).Set(j.Wall.Seconds() * 1e3)
		reg.Gauge("sweep_job_queue_ms", label).Set(j.Queue.Seconds() * 1e3)
		reg.Gauge("sweep_job_worker", label).Set(float64(j.Worker))
	}
}

// Run executes the jobs on a pool of `workers` goroutines and returns their
// results in job order. workers <= 0 uses GOMAXPROCS; workers == 1 runs the
// jobs inline, sequentially, on the calling goroutine.
//
// All jobs run to completion even when some fail, so the returned error —
// that of the lowest-indexed failing job — does not depend on scheduling.
// A job that panics resolves to a *PanicError naming the job; the panic is
// recovered on the worker so the sweep survives poisoned configurations.
// Even on error the results slice is returned in full, with the zero value
// at failed positions, so callers can keep the healthy configurations.
func Run[T any](workers int, jobs []Job[T]) ([]T, *Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	stats := &Stats{Workers: workers, Jobs: make([]JobStat, len(jobs))}
	// Wall-clock readings go through obs.WallNow — the module's single
	// sanctioned profiling clock — and feed only the -sweepstats report,
	// never golden output.
	start := obs.WallNow()

	// safeRun converts a panicking job into a *PanicError so the sweep keeps
	// the other configurations' results and the merge order intact.
	safeRun := func(i int) (result T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Label: jobs[i].Label, Value: r, Stack: debug.Stack()}
			}
		}()
		return jobs[i].Run()
	}

	exec := func(i, worker int) {
		st := &stats.Jobs[i]
		st.Index, st.Label, st.Worker = i, jobs[i].Label, worker
		t0 := obs.WallNow()
		st.Queue = t0.Sub(start)
		results[i], errs[i] = safeRun(i)
		st.Wall = obs.WallSince(t0)
	}

	if workers == 1 {
		for i := range jobs {
			exec(i, 0)
		}
	} else {
		queue := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for i := range queue {
					exec(i, worker)
				}
			}(w)
		}
		for i := range jobs {
			queue <- i
		}
		close(queue)
		wg.Wait()
	}
	stats.Elapsed = obs.WallSince(start)

	for i, err := range errs {
		if err != nil {
			return results, stats, fmt.Errorf("sweep: job %d (%s): %w", i, jobs[i].Label, err)
		}
	}
	return results, stats, nil
}
