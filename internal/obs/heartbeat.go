package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Heartbeat emits a periodic progress line for long runs: every N ticks it
// prints the tick count, the current virtual time and the wall-clock event
// rate. It is strictly a liveness aid — the output carries wall-derived
// values, so it must only ever go to stderr, never into a deterministic
// artifact (the same rule -simspeed follows). Wall time is read exclusively
// through WallNow/WallSince, the single determlint-sanctioned clock site.
//
// A nil *Heartbeat is the off state: Tick on nil is a single comparison, so
// instrumented loops (DES dispatch, measured variants) call it
// unconditionally. Sweep workers share one heartbeat, hence the mutex.
type Heartbeat struct {
	every uint64
	w     io.Writer

	mu    sync.Mutex
	n     uint64
	start time.Time
}

// NewHeartbeat returns a heartbeat printing to w every `every` ticks, or nil
// (off) when every <= 0 — the CLIs pass the -heartbeat flag value straight
// through, so the default 0 costs nothing.
func NewHeartbeat(every int, w io.Writer) *Heartbeat {
	if every <= 0 || w == nil {
		return nil
	}
	return &Heartbeat{every: uint64(every), w: w, start: WallNow()}
}

// Tick records one unit of progress (a DES event dispatch, a measured
// variant) at the given virtual time — DES seconds or engine cycles,
// whichever clock the caller runs on. Nil-safe.
func (h *Heartbeat) Tick(virtual float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.n++
	if h.n%h.every == 0 {
		elapsed := WallSince(h.start).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(h.n) / elapsed
		}
		fmt.Fprintf(h.w, "heartbeat: ticks=%d virtual=%g rate=%.0f/s\n", h.n, virtual, rate)
	}
	h.mu.Unlock()
}
