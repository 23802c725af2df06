// Failure semantics for the platform simulator: a taxonomy of
// platform-level failures (OOM kills, timeouts, throttles, transient init
// crashes), a deterministic seed-driven fault injector, and a client-side
// retry policy with exponential backoff and per-attempt cost accounting.
//
// The model follows AWS Lambda's behavior: an invocation whose footprint
// exceeds the configured memory is killed and the partial duration billed;
// a timeout kills the billed window at the configured bound; a request
// over the concurrency limit is rejected up front (429) and never billed;
// a failed initialization is billed and destroys the fresh environment.
// Client retries are what the AWS SDKs do — capped exponential backoff
// with jitter — and every billed attempt lands on the customer's invoice.
package faas

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/obs"
)

// FailureClass classifies how an invocation ended.
type FailureClass int

const (
	// FailureNone marks a successful invocation.
	FailureNone FailureClass = iota
	// FailureHandler is an application-level exception (including the
	// AttributeError a debloated function raises on an uncovered path).
	// Retrying cannot help: the same input hits the same code.
	FailureHandler
	// FailureOOM is a kill for exceeding the configured memory.
	FailureOOM
	// FailureTimeout is a kill for exceeding the function timeout.
	FailureTimeout
	// FailureThrottle is an up-front rejection under the concurrency
	// limit (never billed).
	FailureThrottle
	// FailureInitCrash is a transient crash during Function
	// Initialization (billed; the environment is destroyed).
	FailureInitCrash
)

func (c FailureClass) String() string {
	switch c {
	case FailureNone:
		return "ok"
	case FailureHandler:
		return "handler-error"
	case FailureOOM:
		return "oom"
	case FailureTimeout:
		return "timeout"
	case FailureThrottle:
		return "throttle"
	case FailureInitCrash:
		return "init-crash"
	}
	return fmt.Sprintf("failure(%d)", int(c))
}

// FailureError is the error carried by an invocation the platform killed
// or rejected.
type FailureError struct {
	Class    FailureClass
	Function string
	Detail   string
}

func (e *FailureError) Error() string {
	return fmt.Sprintf("faas: %s: %s: %s", e.Function, e.Class, e.Detail)
}

// Classify maps an invocation error to its failure class: platform
// failures keep their class (however deeply wrapped), interpreter
// exceptions and every other error are handler errors.
func Classify(err error) FailureClass {
	if err == nil {
		return FailureNone
	}
	var fe *FailureError
	if errors.As(err, &fe) {
		return fe.Class
	}
	return FailureHandler
}

// FaultConfig parameterizes the deterministic fault injector. All draws
// come from the platform's FaultSeed stream in a fixed per-invocation
// order (slow-cold, init-crash on cold starts; memory-spike on every
// attempt), so a fixed seed and workload reproduce byte-identical logs.
type FaultConfig struct {
	// Enabled turns the injector on; the zero value injects nothing.
	Enabled bool
	// InitCrashRate is the probability a cold start's initialization
	// transiently crashes (billed, environment destroyed, retryable).
	InitCrashRate float64
	// SlowColdRate and SlowColdFactor stretch the provider-side cold
	// phases (instance init + image transfer) by the factor — the
	// occasional pathological cold start.
	SlowColdRate   float64
	SlowColdFactor float64
	// MemorySpikeRate and MemorySpikeMB inflate an invocation's footprint
	// by an absolute amount, modeling input-dependent memory. With
	// EnforceMemory on, a spike can push an otherwise-fitting invocation
	// over its configured memory.
	MemorySpikeRate float64
	MemorySpikeMB   float64
	// ConcurrencyLimit caps busy instances per function; requests beyond
	// it are throttled. Zero means unlimited.
	ConcurrencyLimit int
}

// RetryPolicy is a client-side retry loop: capped exponential backoff with
// seeded jitter, retrying only the failure classes that can plausibly
// clear (throttles, transient crashes, timeouts, spike-induced OOMs).
type RetryPolicy struct {
	// MaxAttempts bounds total attempts (first try included); values < 1
	// behave as 1.
	MaxAttempts int
	// InitialBackoff is the base wait before the second attempt.
	InitialBackoff time.Duration
	// BackoffMultiplier grows the wait per attempt (2 = doubling).
	BackoffMultiplier float64
	// MaxBackoff caps a single wait.
	MaxBackoff time.Duration
	// Jitter in [0,1] randomizes that fraction of each wait, drawn from
	// the platform's seeded stream (0 = fully deterministic waits).
	Jitter float64
}

// RetryBudget is a sliding-window cap on total client-side retries. Share
// one budget across the requests of a logical client so injected
// throttling cannot amplify into a retry storm: once the window's retries
// are spent, further failures return to the caller immediately instead of
// re-entering the backoff loop.
//
// Spend times come from a virtual clock, so budget decisions are
// deterministic. Not safe for concurrent use.
type RetryBudget struct {
	// MaxRetries is the cap per window; values < 1 deny every retry.
	MaxRetries int
	// Window is the sliding sim-time window; it must be positive.
	Window time.Duration

	spent []time.Duration // charge times within the window, ascending
}

// NewRetryBudget builds a budget allowing maxRetries per window.
func NewRetryBudget(maxRetries int, window time.Duration) *RetryBudget {
	return &RetryBudget{MaxRetries: maxRetries, Window: window}
}

// Spend charges one retry at the given sim time. It reports false — and
// charges nothing — when the window's cap is already spent.
func (b *RetryBudget) Spend(now time.Duration) bool {
	b.prune(now)
	if len(b.spent) >= b.MaxRetries {
		return false
	}
	b.spent = append(b.spent, now)
	return true
}

// prune expires charges older than the window. Charges arrive in ascending
// time order, so expiry is a prefix cut — compacted to the front of the
// backing array so a long run keeps at most MaxRetries entries resident
// instead of leaking an ever-growing expired prefix.
func (b *RetryBudget) prune(now time.Duration) {
	cut := now - b.Window
	i := 0
	for i < len(b.spent) && b.spent[i] <= cut {
		i++
	}
	if i > 0 {
		n := copy(b.spent, b.spent[i:])
		b.spent = b.spent[:n]
	}
}

// DefaultRetryPolicy mirrors the AWS SDK defaults: 3 attempts, 100 ms
// base, doubling, 5 s cap, half-jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:       3,
		InitialBackoff:    100 * time.Millisecond,
		BackoffMultiplier: 2,
		MaxBackoff:        5 * time.Second,
		Jitter:            0.5,
	}
}

// retryable reports whether a failure class can clear on a fresh attempt:
// throttle, init-crash, timeout and OOM. Handler errors are deterministic
// (the same input hits the same code), so they are never retried.
func retryable(c FailureClass) bool {
	switch c {
	case FailureThrottle, FailureInitCrash, FailureTimeout, FailureOOM:
		return true
	}
	return false
}

// backoff computes the wait after the given (1-based) failed attempt.
func (rp RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	base := rp.InitialBackoff
	if base <= 0 {
		return 0
	}
	mult := rp.BackoffMultiplier
	if mult < 1 {
		mult = 1
	}
	wait := float64(base)
	for i := 1; i < attempt; i++ {
		wait *= mult
		if rp.MaxBackoff > 0 && wait > float64(rp.MaxBackoff) {
			wait = float64(rp.MaxBackoff)
			break
		}
	}
	if rp.MaxBackoff > 0 && wait > float64(rp.MaxBackoff) {
		wait = float64(rp.MaxBackoff)
	}
	if rp.Jitter > 0 {
		j := rp.Jitter
		if j > 1 {
			j = 1
		}
		wait = wait*(1-j) + wait*j*rng.Float64()
	}
	return time.Duration(wait)
}

// retryState accumulates one logical request across attempts.
type retryState struct {
	last    *Invocation
	costs   []float64
	billed  time.Duration
	e2e     time.Duration
	backoff time.Duration
	end     time.Duration // completion of the last attempt on the platform clock
	done    bool
	span    *obs.Span // "request" span grouping the attempts (nil untraced)
}

// absorb adds one attempt to the request and counts it. The request is
// done once an attempt succeeds, fails for good, or is the last one the
// policy allows (MaxAttempts below 1 allows one).
func (st *retryState) absorb(p *Platform, inv *Invocation, pol RetryPolicy) {
	inv.Attempt = len(st.costs) + 1
	st.last = inv
	st.costs = append(st.costs, inv.CostUSD)
	st.billed += inv.BilledDuration
	st.e2e += inv.E2E
	p.cfg.Tracer.Metrics().Inc("faas.retry.attempts", 1)
	st.done = inv.Err == nil || !retryable(inv.Class) || len(st.costs) >= pol.MaxAttempts
}

// retry makes the next attempt of an unfinished request: it waits out the
// backoff on the platform clock, re-invokes and absorbs the attempt.
func (p *Platform) retry(st *retryState, name string, event map[string]any, pol RetryPolicy) error {
	wait := pol.backoff(len(st.costs), p.rng)
	st.backoff += wait
	p.recordBackoff(st.span, len(st.costs), wait)
	p.Advance(wait)
	inv, err := p.invokeNamed(name, event, true, st.span)
	if err != nil {
		return err
	}
	st.absorb(p, inv, pol)
	st.end = p.now
	return nil
}

// finalize builds the aggregate client-visible record: the last attempt's
// outcome with cost, billed duration and E2E summed across every attempt
// plus the backoff waits.
func (st *retryState) finalize() *Invocation {
	out := *st.last
	out.Attempts = len(st.costs)
	out.AttemptCostsUSD = st.costs
	out.BackoffWait = st.backoff
	out.BilledDuration = st.billed
	out.E2E = st.e2e + st.backoff
	total := 0.0
	for _, c := range st.costs {
		total += c
	}
	out.CostUSD = total
	return &out
}

// InvokeWithRetry sends an event and retries platform-transient failures
// per the policy, advancing the platform clock through each backoff. The
// returned record carries the final outcome with aggregate cost, billed
// duration, E2E (attempts + waits) and the per-attempt bills.
func (p *Platform) InvokeWithRetry(name string, event map[string]any, pol RetryPolicy) (*Invocation, error) {
	var st retryState
	if tr := p.cfg.Tracer; tr != nil {
		st.span = tr.StartChild(nil, "request "+name, "faas", p.now)
	}
	inv, err := p.invokeNamed(name, event, true, st.span)
	if err != nil {
		return nil, err
	}
	st.absorb(p, inv, pol)
	st.end = p.now
	for !st.done {
		if err := p.retry(&st, name, event, pol); err != nil {
			return nil, err
		}
	}
	out := st.finalize()
	st.close(p, out)
	return out, nil
}

// recordBackoff records one backoff wait as a child span of the request,
// starting at the current platform time, plus the aggregate wait counter.
func (p *Platform) recordBackoff(req *obs.Span, attempt int, wait time.Duration) {
	tr := p.cfg.Tracer
	if tr == nil {
		return
	}
	tr.StartChild(req, "backoff", "faas", p.now).
		Add(obs.Int("after_attempt", int64(attempt))).
		Finish(p.now + wait)
}

// close finishes the request span at the request's completion time with the
// aggregate outcome, and counts requests that needed more than one attempt.
func (st *retryState) close(p *Platform, out *Invocation) {
	tr := p.cfg.Tracer
	if tr == nil {
		return
	}
	tr.Metrics().Inc("faas.retry.requests", 1)
	tr.Metrics().Inc("faas.retry.backoff_wait_us", out.BackoffWait.Microseconds())
	if out.Attempts > 1 {
		tr.Metrics().Inc("faas.retry.retried_requests", 1)
	}
	st.span.Add(
		obs.Int("attempts", int64(out.Attempts)),
		obs.String("class", out.Class.String()),
		obs.DurationUS("backoff_us", out.BackoffWait),
	).Finish(st.end)
}

// InvokeGroupWithRetry delivers all events concurrently at the current
// platform time — a burst: idle warm instances serve what they can, every
// request beyond that pays a cold start, and the concurrency it builds up
// is what trips a throttle limit. The clock advances by the slowest first
// attempt; then each failed retryable request goes through the policy's
// sequential backoff-and-retry loop, in event order. Records are returned
// in event order with the same per-attempt accounting as InvokeWithRetry.
// RetryPolicy{MaxAttempts: 1} delivers a plain burst.
func (p *Platform) InvokeGroupWithRetry(name string, events []map[string]any, pol RetryPolicy) ([]*Invocation, error) {
	if len(events) == 0 {
		return nil, nil
	}
	tr := p.cfg.Tracer
	groupStart := p.now
	states := make([]retryState, len(events))
	var maxE2E time.Duration
	for i, ev := range events {
		st := &states[i]
		if tr != nil {
			st.span = tr.StartChild(nil, "request "+name, "faas", groupStart)
			st.span.Add(obs.Int("group_index", int64(i)))
		}
		inv, err := p.invokeNamed(name, ev, false, st.span)
		if err != nil {
			return nil, err
		}
		st.absorb(p, inv, pol)
		st.end = groupStart + st.e2e
		if inv.E2E > maxE2E {
			maxE2E = inv.E2E
		}
	}
	p.now += maxE2E

	for i := range states {
		st := &states[i]
		for !st.done {
			if err := p.retry(st, name, events[i], pol); err != nil {
				return nil, err
			}
		}
	}

	out := make([]*Invocation, len(events))
	for i := range states {
		out[i] = states[i].finalize()
		states[i].close(p, out[i])
	}
	return out, nil
}

// logAttrs builds the invocation's canonical attribute list — the single
// source of truth behind both the k=v log line and the JSONL event log.
// Values are pre-formatted strings so every rendering agrees byte-for-byte.
func (inv *Invocation) logAttrs() []obs.Attr {
	attempts := inv.Attempts
	if attempts == 0 {
		attempts = 1
	}
	attrs := []obs.Attr{
		obs.String("fn", inv.Function),
		obs.String("kind", inv.Kind.String()),
		obs.String("class", inv.Class.String()),
		obs.Int("attempts", int64(attempts)),
		obs.DurationUS("init_us", inv.Init),
		obs.DurationUS("exec_us", inv.Exec),
		obs.DurationUS("e2e_us", inv.E2E),
		obs.DurationUS("billed_us", inv.BilledDuration),
		obs.Int("mem_mb", int64(inv.MemoryMB)),
		{Key: "peak_mb", Val: strconv.FormatFloat(inv.PeakMB, 'f', 3, 64)},
		{Key: "cost_usd", Val: strconv.FormatFloat(inv.CostUSD, 'f', 12, 64)},
	}
	if inv.FallbackUsed {
		attrs = append(attrs, obs.String("fallback", inv.FallbackKind.String()))
	}
	if inv.Err != nil {
		attrs = append(attrs, obs.String("err", inv.Err.Error()))
	}
	return attrs
}

// LogLine renders the invocation as one canonical, fully-deterministic
// log record — the unit of the "same seed ⇒ byte-identical logs"
// guarantee. It is the k=v rendering of logAttrs; the JSONL event log is
// the structured rendering of the same attributes.
func (inv *Invocation) LogLine() string {
	return obs.LogLineFromAttrs(inv.logAttrs())
}
