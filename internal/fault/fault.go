// Package fault is the deterministic fault-injection subsystem: a parsed
// fault specification (Spec) compiled into a seeded, virtual-time plan
// (Plan) that the simulation layers consult.
//
// Faults are experiments, not chaos: every decision draws from an
// explicitly-seeded RNG and every schedule is expressed in virtual seconds
// of the discrete-event clock, so a faulty run is exactly as reproducible —
// byte-identical across runs and sweep worker counts — as a healthy one.
// The hooks follow the nil-means-free convention of the obs probes: a nil
// *Plan answers "no fault" from every method at the cost of one nil check,
// so un-faulted runs execute the exact event sequence they always did.
//
// The layers consume the plan as follows:
//
//   - internal/netsim drops, duplicates and delay-spikes messages
//     (DropMessage, DuplicateMessage, DelaySpike);
//   - internal/kvs drops requests during crash windows (CrashedAt),
//     stretches service time during slow windows (SlowdownAt), and applies
//     transient insert pressure (PressureItems/PressurePeriod);
//   - internal/memslap runs the client protocol — per-request virtual-time
//     timeouts, bounded retries with capped exponential backoff and seeded
//     jitter (Timeout, MaxRetries, BackoffFor) — and degrades gracefully
//     when retries are exhausted, counting the abandoned keys as missing;
//   - internal/core applies charged insert-pressure bursts to the table
//     substrate mid-measurement (PressureKey).
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Client-protocol defaults, applied by NewPlan when the spec leaves them
// zero. They are sized for the simulated EDR fabric, where a healthy
// Multi-Get completes in tens of microseconds.
const (
	DefaultTimeout = 500e-6 // seconds of virtual time per request attempt
	DefaultRetries = 3      // retries after the first attempt
	DefaultBackoff = 100e-6 // base backoff; doubled per retry, capped
)

// backoffCap bounds the exponential backoff at backoffCap×Backoff.
const backoffCap = 8

// BudgetRefillPerSuccess is the token-bucket refill credited to a client's
// retry budget by each fully-served request: ten successes earn one retry,
// so sustained retry traffic is capped at ~10% of goodput (the classic
// retry-budget rule) once the initial burst allowance is spent.
const BudgetRefillPerSuccess = 0.1

// Spec is a declarative fault configuration. The zero Spec means "no
// faults" and compiles to a nil Plan. All durations are virtual seconds.
type Spec struct {
	// Network faults, one independent decision per logical message.
	Drop      float64 // drop probability in [0,1]
	Dup       float64 // duplication probability in [0,1]
	DelayProb float64 // delay-spike probability in [0,1]
	Delay     float64 // delay-spike magnitude, seconds

	// Server crash/recovery windows: after each full healthy period the
	// server is down for CrashDown seconds (windows repeat every
	// CrashPeriod seconds; requests arriving inside a window are dropped).
	CrashPeriod float64
	CrashDown   float64

	// Server slowdown windows: service time is multiplied by SlowFactor
	// for SlowDur seconds out of every SlowPeriod.
	SlowFactor float64
	SlowPeriod float64
	SlowDur    float64

	// Transient insert pressure: every PressurePeriod seconds,
	// PressureItems ephemeral items are inserted and removed again,
	// spiking the load factor and forcing cuckoo kick chains.
	PressureItems  int
	PressurePeriod float64

	// Client protocol knobs; zero values take the package defaults when
	// the plan is built.
	Timeout float64 // per-request virtual-time timeout
	Retries int     // bounded retries after the first attempt
	Backoff float64 // base backoff between retries

	// Overload controls. Unlike the knobs above these are protections, not
	// faults; zero values leave each control off.
	QueueDepth    int     // qdepth=: server admission bound (queued batches per worker pool)
	QueueDeadline float64 // qdeadline=: shed queued work older than this at grant time
	RetryBudget   int     // budget=: per-client retry token-bucket capacity (0 = unlimited)
	Hedge         float64 // hedge=: hedged-read delay for replicated reads (0 = off)
}

// Enabled reports whether the spec requests anything at all.
func (s Spec) Enabled() bool { return s != Spec{} }

// ParseSpec parses a comma-separated fault specification, e.g.
//
//	drop=0.05,dup=0.01,delayp=0.1,delay=5us,crash=500us:150us,
//	slow=2x@300us:100us,pressure=50@400us,timeout=80us,retries=2,backoff=20us
//
// Durations use Go syntax (time.ParseDuration) and probabilities are
// fractions in [0,1]. An empty string is the zero Spec.
func ParseSpec(s string) (Spec, error) {
	var out Spec
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: %q is not key=value", field)
		}
		var err error
		switch key {
		case "drop":
			out.Drop, err = parseProb(key, val)
		case "dup":
			out.Dup, err = parseProb(key, val)
		case "delayp":
			out.DelayProb, err = parseProb(key, val)
		case "delay":
			out.Delay, err = parseDur(key, val)
		case "crash":
			out.CrashPeriod, out.CrashDown, err = parseWindow(key, val)
		case "slow":
			factor, rest, ok := strings.Cut(val, "@")
			if !ok || !strings.HasSuffix(factor, "x") {
				return Spec{}, fmt.Errorf("fault: slow wants <factor>x@<period>:<dur>, got %q", val)
			}
			out.SlowFactor, err = strconv.ParseFloat(strings.TrimSuffix(factor, "x"), 64)
			if err == nil && !(out.SlowFactor > 1) { // negated so NaN is rejected too
				err = fmt.Errorf("fault: slow factor must exceed 1, got %g", out.SlowFactor)
			}
			if err == nil {
				out.SlowPeriod, out.SlowDur, err = parseWindow(key, rest)
			}
		case "pressure":
			items, rest, ok := strings.Cut(val, "@")
			if !ok {
				return Spec{}, fmt.Errorf("fault: pressure wants <items>@<period>, got %q", val)
			}
			out.PressureItems, err = strconv.Atoi(items)
			if err == nil && out.PressureItems <= 0 {
				err = fmt.Errorf("fault: pressure items must be positive, got %d", out.PressureItems)
			}
			if err == nil {
				out.PressurePeriod, err = parseDur(key, rest)
			}
		case "timeout":
			out.Timeout, err = parseDur(key, val)
		case "retries":
			out.Retries, err = strconv.Atoi(val)
			if err == nil && out.Retries < 0 {
				err = fmt.Errorf("fault: retries must be non-negative, got %d", out.Retries)
			}
		case "backoff":
			out.Backoff, err = parseDur(key, val)
		case "qdepth":
			out.QueueDepth, err = strconv.Atoi(val)
			if err != nil || out.QueueDepth <= 0 {
				err = fmt.Errorf("fault: qdepth wants a positive queue depth, got %q", val)
			}
		case "qdeadline":
			out.QueueDeadline, err = parseDur(key, val)
		case "budget":
			out.RetryBudget, err = strconv.Atoi(val)
			if err != nil || out.RetryBudget <= 0 {
				err = fmt.Errorf("fault: budget wants a positive token count, got %q", val)
			}
		case "hedge":
			out.Hedge, err = parseDur(key, val)
		default:
			return Spec{}, fmt.Errorf("fault: unknown key %q (want drop, dup, delayp, delay, crash, slow, pressure, timeout, retries, backoff, qdepth, qdeadline, budget, hedge)", key)
		}
		if err != nil {
			return Spec{}, err
		}
	}
	return out, nil
}

func parseProb(key, val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil || !(p >= 0 && p <= 1) { // negated so NaN is rejected too
		return 0, fmt.Errorf("fault: %s wants a probability in [0,1], got %q", key, val)
	}
	return p, nil
}

func parseDur(key, val string) (float64, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("fault: %s wants a positive duration, got %q", key, val)
	}
	return d.Seconds(), nil
}

// parseWindow parses "<period>:<dur>" and requires dur < period, so every
// window is followed by healthy time and the schedule cannot wedge a run.
func parseWindow(key, val string) (period, dur float64, err error) {
	p, d, ok := strings.Cut(val, ":")
	if !ok {
		return 0, 0, fmt.Errorf("fault: %s wants <period>:<duration>, got %q", key, val)
	}
	if period, err = parseDur(key, p); err != nil {
		return 0, 0, err
	}
	if dur, err = parseDur(key, d); err != nil {
		return 0, 0, err
	}
	if dur >= period {
		return 0, 0, fmt.Errorf("fault: %s window %q must be shorter than its period", key, val)
	}
	return period, dur, nil
}

// String renders the spec in canonical ParseSpec syntax (fixed field
// order), suitable as a deterministic scope label. The zero spec renders
// as "".
func (s Spec) String() string {
	var parts []string
	add := func(format string, args ...interface{}) {
		parts = append(parts, fmt.Sprintf(format, args...))
	}
	if s.Drop > 0 {
		add("drop=%g", s.Drop)
	}
	if s.Dup > 0 {
		add("dup=%g", s.Dup)
	}
	if s.DelayProb > 0 {
		add("delayp=%g", s.DelayProb)
	}
	if s.Delay > 0 {
		add("delay=%s", durStr(s.Delay))
	}
	if s.CrashPeriod > 0 {
		add("crash=%s:%s", durStr(s.CrashPeriod), durStr(s.CrashDown))
	}
	if s.SlowFactor > 1 {
		add("slow=%gx@%s:%s", s.SlowFactor, durStr(s.SlowPeriod), durStr(s.SlowDur))
	}
	if s.PressureItems > 0 {
		add("pressure=%d@%s", s.PressureItems, durStr(s.PressurePeriod))
	}
	if s.Timeout > 0 {
		add("timeout=%s", durStr(s.Timeout))
	}
	if s.Retries > 0 {
		add("retries=%d", s.Retries)
	}
	if s.Backoff > 0 {
		add("backoff=%s", durStr(s.Backoff))
	}
	if s.QueueDepth > 0 {
		add("qdepth=%d", s.QueueDepth)
	}
	if s.QueueDeadline > 0 {
		add("qdeadline=%s", durStr(s.QueueDeadline))
	}
	if s.RetryBudget > 0 {
		add("budget=%d", s.RetryBudget)
	}
	if s.Hedge > 0 {
		add("hedge=%s", durStr(s.Hedge))
	}
	return strings.Join(parts, ",")
}

// durStr renders a parsed duration. Rounding to the nearest nanosecond
// undoes the float scaling of parseDur: 65µs is 6.5e-5 s, whose product
// with 1e9 lands just below 65000 and would truncate to 64.999µs.
func durStr(seconds float64) string {
	return time.Duration(math.Round(seconds * float64(time.Second))).String()
}

// Plan is a compiled spec bound to a seed: the object the simulation
// layers consult. All methods are nil-safe and answer "no fault" on a nil
// plan, so wiring a plan field into a struct costs nothing when unset.
//
// A plan's RNG stream is shared by all fault decisions of one simulated
// run; because each run executes on a single goroutine in deterministic
// event order, the draws — and therefore the injected faults — replay
// exactly.
type Plan struct {
	spec Spec
	seed int64
	rng  *rand.Rand

	// Window phase offsets, staggered per server by ForServer so a
	// cluster's crash/slow windows do not align.
	crashPhase float64
	slowPhase  float64
}

// NewPlan compiles the spec with the given seed, applying the client
// protocol defaults. A zero (disabled) spec returns nil — the "no faults"
// plan.
func (s Spec) NewPlan(seed int64) *Plan {
	if !s.Enabled() {
		return nil
	}
	if s.Timeout <= 0 {
		s.Timeout = DefaultTimeout
	}
	if s.Retries <= 0 {
		s.Retries = DefaultRetries
	}
	if s.Backoff <= 0 {
		s.Backoff = DefaultBackoff
	}
	return &Plan{spec: s, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Spec returns the (normalized) spec the plan was compiled from.
func (p *Plan) Spec() Spec {
	if p == nil {
		return Spec{}
	}
	return p.spec
}

// ForServer derives a per-server plan: an independent RNG stream and
// staggered crash/slow window phases, so a cluster's servers do not fail
// in lockstep. Server 0 keeps the parent's phase.
func (p *Plan) ForServer(i int) *Plan {
	if p == nil {
		return nil
	}
	d := *p
	d.rng = rand.New(rand.NewSource(p.seed + int64(i)*0x5DEECE66D))
	d.crashPhase = stagger(p.spec.CrashPeriod, i)
	d.slowPhase = stagger(p.spec.SlowPeriod, i)
	return &d
}

// ForPartition derives the message-fault stream for sends originating on
// simulation partition i of a partitioned fabric. Each partition has its
// own seeded RNG, so its draw sequence is a function of the partition's own
// send order. The salt is distinct from ForServer's so a partition's message stream never
// collides with a server's crash/slow/pressure stream, and window phases are
// not staggered: crash and slow windows belong to the per-server plans, not
// the fabric.
func (p *Plan) ForPartition(i int) *Plan {
	if p == nil {
		return nil
	}
	d := *p
	d.rng = rand.New(rand.NewSource((p.seed ^ 0x706172746974696F) + int64(i)*0x5DEECE66D))
	return &d
}

// stagger offsets server i's window phase by the golden-ratio fraction of
// the period — an even spread for any server count.
func stagger(period float64, i int) float64 {
	if period <= 0 {
		return 0
	}
	return period * math.Mod(0.61803398875*float64(i), 1)
}

// DropMessage decides whether the next logical message is dropped.
func (p *Plan) DropMessage() bool {
	if p == nil || p.spec.Drop <= 0 {
		return false
	}
	return p.rng.Float64() < p.spec.Drop
}

// DuplicateMessage decides whether the next logical message is delivered
// twice.
func (p *Plan) DuplicateMessage() bool {
	if p == nil || p.spec.Dup <= 0 {
		return false
	}
	return p.rng.Float64() < p.spec.Dup
}

// DelaySpike returns the extra delivery delay (seconds) for the next
// logical message, or 0.
func (p *Plan) DelaySpike() float64 {
	if p == nil || p.spec.DelayProb <= 0 || p.spec.Delay <= 0 {
		return 0
	}
	if p.rng.Float64() < p.spec.DelayProb {
		return p.spec.Delay
	}
	return 0
}

// CrashedAt reports whether the server is inside a crash window at virtual
// time now. The first period is always healthy, so load and warm-up phases
// at t≈0 are never inside a window.
func (p *Plan) CrashedAt(now float64) bool {
	if p == nil || p.spec.CrashPeriod <= 0 || p.spec.CrashDown <= 0 {
		return false
	}
	return inWindow(now+p.crashPhase, p.spec.CrashPeriod, p.spec.CrashDown)
}

// CrashWindow returns this plan's k-th (k >= 1) crash window in absolute
// virtual time as [start, start+dur), honouring the per-server phase set by
// ForServer. ok is false when the plan has no crash windows configured.
// Fleet membership churn uses this to schedule Leave at window start and
// Join at window end, so ring epochs line up exactly with the request drops
// CrashedAt produces.
func (p *Plan) CrashWindow(k int) (start, dur float64, ok bool) {
	if p == nil || k < 1 || p.spec.CrashPeriod <= 0 || p.spec.CrashDown <= 0 {
		return 0, 0, false
	}
	return float64(k)*p.spec.CrashPeriod - p.crashPhase, p.spec.CrashDown, true
}

// SlowdownAt returns the service-time multiplier at virtual time now: the
// spec's slow factor inside a slow window, 1 outside.
func (p *Plan) SlowdownAt(now float64) float64 {
	if p == nil || p.spec.SlowFactor <= 1 || p.spec.SlowPeriod <= 0 || p.spec.SlowDur <= 0 {
		return 1
	}
	if inWindow(now+p.slowPhase, p.spec.SlowPeriod, p.spec.SlowDur) {
		return p.spec.SlowFactor
	}
	return 1
}

// inWindow reports whether t falls in [k*period, k*period+dur) for k >= 1.
func inWindow(t, period, dur float64) bool {
	k := math.Floor(t / period)
	if k < 1 {
		return false
	}
	return t-k*period < dur
}

// PressureItems returns the per-burst transient insert count, 0 when
// pressure is not configured.
func (p *Plan) PressureItems() int {
	if p == nil {
		return 0
	}
	return p.spec.PressureItems
}

// PressurePeriod returns the seconds between pressure bursts, 0 when
// pressure is not configured.
func (p *Plan) PressurePeriod() float64 {
	if p == nil {
		return 0
	}
	return p.spec.PressurePeriod
}

// PressureKey draws a random odd key under mask for a core-layer pressure
// insert. Odd keys never collide with the even keys cuckoo.FillRandom
// stores, so pressure items are guaranteed transients.
func (p *Plan) PressureKey(mask uint64) uint64 {
	if p == nil {
		return 1
	}
	return (p.rng.Uint64() & mask) | 1
}

// Timeout returns the per-request virtual-time timeout.
func (p *Plan) Timeout() float64 {
	if p == nil {
		return DefaultTimeout
	}
	return p.spec.Timeout
}

// MaxRetries returns the bounded retry count after the first attempt.
func (p *Plan) MaxRetries() int {
	if p == nil {
		return DefaultRetries
	}
	return p.spec.Retries
}

// BackoffFor returns the jittered backoff before retry attempt n (n >= 1):
// the base doubled per retry, capped at backoffCap× the base, with a
// seeded multiplicative jitter in [1, 1.5).
func (p *Plan) BackoffFor(attempt int) float64 {
	if p == nil {
		return DefaultBackoff
	}
	base := p.spec.Backoff
	for i := 1; i < attempt && base < p.spec.Backoff*backoffCap; i++ {
		base *= 2
	}
	if base > p.spec.Backoff*backoffCap {
		base = p.spec.Backoff * backoffCap
	}
	return base * (1 + 0.5*p.rng.Float64())
}

// QueueDepth returns the server admission bound (queued batches per worker
// pool), 0 when admission control is off.
func (p *Plan) QueueDepth() int {
	if p == nil {
		return 0
	}
	return p.spec.QueueDepth
}

// QueueDeadline returns the queue-staleness deadline (seconds): queued work
// older than this is shed at grant time instead of served late. 0 = off.
func (p *Plan) QueueDeadline() float64 {
	if p == nil {
		return 0
	}
	return p.spec.QueueDeadline
}

// RetryBudget returns the per-client retry token-bucket capacity, 0 when
// retries are unbudgeted.
func (p *Plan) RetryBudget() int {
	if p == nil {
		return 0
	}
	return p.spec.RetryBudget
}

// HedgeDelay returns the hedged-read delay (seconds): how long a replicated
// read waits before issuing a duplicate to the next replica. 0 = no hedging.
func (p *Plan) HedgeDelay() float64 {
	if p == nil {
		return 0
	}
	return p.spec.Hedge
}

// OverloadArmed reports whether any overload control (admission bound,
// queue deadline, retry budget, hedging) is configured — the gate for
// registering overload probes, mirroring how FaultProbe registration is
// gated on an armed plan so control-free goldens stay untouched.
func (p *Plan) OverloadArmed() bool {
	if p == nil {
		return false
	}
	s := p.spec
	return s.QueueDepth > 0 || s.QueueDeadline > 0 || s.RetryBudget > 0 || s.Hedge > 0
}
