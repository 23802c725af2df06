package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/faas"
	"repro/internal/rollout"
	"repro/internal/stats"
)

// Deployment arms the engine knows about. Original and debloated come
// from the fleet population; the two wrapper arms model §5.4's fallback
// (every uncovered path re-invokes the original, billing both) with and
// without the rollout circuit breaker in front of it.
const (
	ArmOriginal  = "original"
	ArmDebloated = "debloated"
	ArmFallback  = "fallback"
	ArmBreaker   = "breaker"
)

// IsFallbackArm reports whether the arm re-invokes the original image on
// uncovered paths (and therefore double-bills when that path fires).
func IsFallbackArm(arm string) bool {
	return arm == ArmFallback || arm == ArmBreaker
}

// Mitigations toggles each graceful-degradation mechanism independently,
// so experiments can ablate them.
type Mitigations struct {
	// Hedge issues a speculative second attempt once a request outlives
	// the function's own p95, taking whichever finishes first (both
	// billed).
	Hedge bool
	// Shed drops requests client-side, before they hit the platform, when
	// the function's recent admission pressure is high — sacrificing a
	// fraction of traffic to break retry amplification.
	Shed bool
	// Breaker puts the rollout circuit breaker in front of the breaker
	// arm's fallback wrapper, routing straight to the original during
	// fallback storms so the doomed debloated attempt is never billed.
	Breaker bool
	// Budget caps client retries per sliding window (faas.RetryBudget),
	// bounding the retry storms that amplify throttle incidents.
	Budget bool
}

// AllMitigations turns every mechanism on.
func AllMitigations() Mitigations {
	return Mitigations{Hedge: true, Shed: true, Breaker: true, Budget: true}
}

// String renders the canonical spec: "all", "none", or a comma-joined
// subset in hedge,shed,breaker,budget order.
func (m Mitigations) String() string {
	if m == AllMitigations() {
		return "all"
	}
	var parts []string
	if m.Hedge {
		parts = append(parts, "hedge")
	}
	if m.Shed {
		parts = append(parts, "shed")
	}
	if m.Breaker {
		parts = append(parts, "breaker")
	}
	if m.Budget {
		parts = append(parts, "budget")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseMitigations parses "all", "none", or a comma-separated subset of
// hedge, shed, breaker, budget.
func ParseMitigations(spec string) (Mitigations, error) {
	switch strings.TrimSpace(spec) {
	case "", "all":
		return AllMitigations(), nil
	case "none":
		return Mitigations{}, nil
	}
	var m Mitigations
	for _, part := range strings.Split(spec, ",") {
		switch strings.TrimSpace(part) {
		case "hedge":
			m.Hedge = true
		case "shed":
			m.Shed = true
		case "breaker":
			m.Breaker = true
		case "budget":
			m.Budget = true
		case "":
		default:
			return Mitigations{}, fmt.Errorf("chaos: unknown mitigation %q (known: hedge shed breaker budget, or all/none)", part)
		}
	}
	return m, nil
}

// Config parameterizes the engine.
type Config struct {
	// Seed keys every chaos hash; the same seed, population, and incident
	// schedule reproduce byte-identical outcomes at any worker count.
	Seed int64
	// Incidents is the schedule (each validated; see ParseIncidents).
	Incidents []Incident
	// Mitigations toggles the degradation mechanisms.
	Mitigations Mitigations
	// Pricing bills every attempt (zero value: faas.AWSPricing).
	Pricing faas.Pricing
}

// The client model's fixed parameters. The breaker arm's circuit breaker
// is rollout.DefaultBreakerConfig and the fault-domain layout is
// DefaultTopology.
const (
	// fallbackRate is the calm-weather uncovered-path rate of the
	// fallback/breaker arms; a brownout raises it to the incident's Frac.
	fallbackRate = 0.02
	// retryBudget and retryBudgetWindow bound client retries per function
	// when Mitigations.Budget is on.
	retryBudget       = 20
	retryBudgetWindow = 5 * time.Minute
	// maxAttempts bounds the client admission loop, first try included.
	// It stays below 16: draw packs the attempt index into four bits.
	maxAttempts = 4
)

// Engine holds the validated config; per-function state hangs off
// Function. The engine itself is immutable after construction and safe to
// share across replay shards.
type Engine struct {
	cfg     Config
	seedKey uint64
}

// NewEngine validates the config (incident parameters and zone indices
// against the topology) and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Pricing == (faas.Pricing{}) {
		cfg.Pricing = faas.AWSPricing()
	}
	zones := DefaultTopology().Zones
	for _, in := range cfg.Incidents {
		if err := in.Validate(); err != nil {
			return nil, err
		}
		if in.Zone >= zones {
			return nil, fmt.Errorf("chaos: %s zone %d out of range (topology has %d zones)",
				in.Kind, in.Zone, zones)
		}
	}
	return &Engine{
		cfg:     cfg,
		seedKey: splitmix64(uint64(cfg.Seed) + 0x5EEDC8A05),
	}, nil
}

// Admission model constants. The client loop treats an incident strike as
// sticky within one arrival: retries against a throttling or dead backend
// mostly fail again (the draws are conditional, not independent), which
// is what makes retry hammering expensive rather than effective.
const (
	// Conditional per-retry failure probability once an arrival is struck.
	outageRetryFail   = 0.97
	throttleRetryFail = 0.9
	// Throttle-storm amplification: effective strike probability is
	// sev*(throttleBase + throttleGain*pressure), capped. Pressure is the
	// EWMA of attempts this client recently wasted, so retry hammering
	// feeds back into the storm.
	throttleBase = 0.4
	throttleGain = 0.3
	strikeCap    = 0.95
	// Congestion collapse: above this pressure the client keeps getting
	// throttled even outside incident windows (the overwhelmed backend
	// has not recovered), at congestGain per unit of excess pressure.
	congestKnee = 1.5
	congestGain = 0.25
	congestCap  = 0.9
	// Load shedding ramp: above the knee, shed probability rises at
	// shedGain per unit of pressure, capped.
	shedKnee = 0.25
	shedGain = 0.8
	shedCap  = 0.7
	// EWMA smoothing for pressure.
	pressureDecay = 0.85
	// Per-attempt routing overhead and retry backoff (deterministic; the
	// usual seeded jitter would perturb nothing here but costs a stream).
	attemptOverhead = 40 * time.Millisecond
	retryBackoff    = 100 * time.Millisecond
	maxBackoff      = 2 * time.Second
	// Hedging engages once the function has this many latency samples.
	hedgeWarmup = 32
)

// FnView is what the engine needs to know about one fleet function.
type FnView struct {
	ID  int
	Arm string
	// ColdInit and Exec are the function's own deterministic phase
	// durations (the fleet population's per-member draws).
	ColdInit time.Duration
	Exec     time.Duration
	// FallbackInit is the original image's cold init, paid on top when a
	// fallback-arm request hits an uncovered path. Zero: 2.5×ColdInit.
	FallbackInit time.Duration
	MemoryMB     int
}

// Drop describes a request the client loop gave up on.
type Drop struct {
	// Class is the monitor sample class: "shed", "throttle", or
	// "unavailable".
	Class string
	// E2E is the client-observed latency of the failed loop (overheads
	// plus backoffs).
	E2E time.Duration
	// Retries is how many retry attempts were spent; RetriesDenied counts
	// retries the budget refused; ThrottledAttempts counts
	// throttle-rejected attempts inside the loop.
	Retries           int
	RetriesDenied     int
	ThrottledAttempts int
}

// Outcome describes a served request.
type Outcome struct {
	Cold bool
	// Init/Exec are the primary attempt's (post-stretch) phases; E2E is
	// what the client observed (retry waits + serve, hedging applied);
	// Busy is how long the pool instance was held.
	Init, Exec, E2E, Busy time.Duration
	// Billing across every attempt this request paid for (primary +
	// fallback re-invocation + hedge).
	BilledInit, BilledExec, Billed time.Duration
	CostUSD                        float64
	// Degradation bookkeeping.
	Retries           int
	RetriesDenied     int
	ThrottledAttempts int
	Fallback          bool // uncovered path fired (double bill)
	Routed            bool // breaker open: went straight to the original
	BreakerOpened     bool // this request tripped the breaker
	Hedged            bool // speculative second attempt issued
	HedgeWon          bool // ...and it finished first
	Brownout          bool // served during an active brownout window
}

// FnState is the engine's per-function state: fault-domain placement,
// zone-filtered incident schedule, churn flush times, admission pressure,
// the latency histogram hedging derives its delay from, and the
// mitigation machinery (budget, breaker). One FnState is driven
// sequentially by whichever shard replays the function — it is not safe
// for concurrent use, and needs none: no state is shared across
// functions, which is exactly why shard scheduling cannot perturb draws.
type FnState struct {
	eng  *Engine
	fn   FnView
	key  uint64
	zone int
	host int

	incidents []Incident // this zone's schedule, start-ordered
	flushes   []time.Duration

	seq      int
	pressure float64
	served   int
	hist     *stats.Histogram

	budget  *faas.RetryBudget
	breaker *rollout.Breaker

	drop Drop
	out  Outcome
}

// Function builds the per-function chaos state.
func (e *Engine) Function(fn FnView) *FnState {
	if fn.FallbackInit == 0 {
		fn.FallbackInit = fn.ColdInit * 5 / 2
	}
	key := splitmix64(e.seedKey ^ splitmix64(uint64(fn.ID)+0x9E3779B97F4A7C15))
	st := &FnState{
		eng:  e,
		fn:   fn,
		key:  key,
		zone: DefaultTopology().ZoneOf(key),
		host: DefaultTopology().HostOf(key),
		hist: stats.NewHistogram(),
	}
	for idx, in := range e.cfg.Incidents {
		if !in.appliesTo(st.zone) {
			continue
		}
		if in.Kind == Churn {
			// Churn is a host-level decision: every function on a picked
			// host flushes at the same staggered instant.
			hk := splitmix64(e.seedKey ^ splitmix64(uint64(st.host)+1) ^ splitmix64(saltChurnPick+uint64(idx)))
			if unit(hk) < in.Severity {
				ph := splitmix64(e.seedKey ^ splitmix64(uint64(st.host)+1) ^ splitmix64(saltChurnPhase+uint64(idx)))
				st.flushes = append(st.flushes, in.Start+stagger(ph, in.Duration))
			}
			continue
		}
		st.incidents = append(st.incidents, in)
	}
	sort.Slice(st.flushes, func(i, j int) bool { return st.flushes[i] < st.flushes[j] })
	if e.cfg.Mitigations.Budget {
		st.budget = faas.NewRetryBudget(retryBudget, retryBudgetWindow)
	}
	if e.cfg.Mitigations.Breaker && fn.Arm == ArmBreaker {
		st.breaker = rollout.NewBreaker(rollout.DefaultBreakerConfig())
	}
	return st
}

// active returns the strongest active incident of the kind, if any.
func (st *FnState) active(kind Kind, at time.Duration) (Incident, bool) {
	best := Incident{}
	found := false
	for _, in := range st.incidents {
		if in.Start > at {
			break // start-ordered
		}
		if in.Kind == kind && in.Active(at) && (!found || in.Severity > best.Severity) {
			best, found = in, true
		}
	}
	return best, found
}

// FlushCut returns the latest churn recycle at or before the instant, or
// a negative duration when the host has not been recycled yet. Pool
// instances freed at or before the cut are gone.
func (st *FnState) FlushCut(at time.Duration) time.Duration {
	cut := time.Duration(-1)
	for _, f := range st.flushes {
		if f > at {
			break
		}
		cut = f
	}
	return cut
}

// Admit runs the client admission loop for the arrival and reports
// whether the request reached the platform. On false, Drop() describes
// the failure; on true, Serve must be called next.
func (st *FnState) Admit(at time.Duration) bool {
	st.seq++
	seq := st.seq
	cfg := &st.eng.cfg

	// Strike draws: is this arrival caught by an active incident (or by
	// post-incident congestion)? One draw per cause per arrival; retries
	// below re-draw conditionally.
	outage, outageOn := st.active(ZoneOutage, at)
	struckOutage := outageOn && draw(st.key, saltOutage, seq, 0) < outage.Severity
	pThrottle := 0.0
	if storm, on := st.active(ThrottleStorm, at); on {
		pThrottle = storm.Severity * (throttleBase + throttleGain*st.pressure)
		if pThrottle > strikeCap {
			pThrottle = strikeCap
		}
	}
	struckThrottle := pThrottle > 0 && draw(st.key, saltThrottle, seq, 0) < pThrottle
	pCongest := 0.0
	if st.pressure > congestKnee {
		pCongest = congestGain * (st.pressure - congestKnee)
		if pCongest > congestCap {
			pCongest = congestCap
		}
	}
	struckCongest := pCongest > 0 && draw(st.key, saltCongest, seq, 0) < pCongest

	// Load shedding: when recent pressure is high, drop a fraction of
	// traffic before it hits the platform at all. A shed request spends
	// no attempts, so it relieves pressure instead of feeding it.
	if cfg.Mitigations.Shed && st.pressure > shedKnee {
		pShed := shedGain * (st.pressure - shedKnee)
		if pShed > shedCap {
			pShed = shedCap
		}
		if draw(st.key, saltShed, seq, 0) < pShed {
			st.notePressure(0)
			st.drop = Drop{Class: "shed", E2E: 0}
			return false
		}
	}

	wasted, denied, throttledAttempts := 0, 0, 0
	wait := time.Duration(0)
	admitted := false
	var dropClass string
	for try := 0; ; try++ {
		rejected, class := st.attemptRejected(struckOutage, struckThrottle, struckCongest, seq, try)
		if !rejected {
			admitted = true
			break
		}
		wasted++
		if class == "throttle" {
			throttledAttempts++
		}
		dropClass = class
		if try+1 >= maxAttempts {
			break
		}
		if st.budget != nil && !st.budget.Spend(at) {
			denied++
			break
		}
		wait += backoffFor(try)
	}

	st.notePressure(float64(wasted) + 0.5*float64(denied))
	retries := wasted - 1
	if admitted {
		retries = wasted
	}
	if retries < 0 {
		retries = 0
	}
	if admitted {
		st.out = Outcome{
			Retries:           retries,
			RetriesDenied:     denied,
			ThrottledAttempts: throttledAttempts,
			E2E:               wait, // serve adds the rest
		}
		return true
	}
	st.drop = Drop{
		Class:             dropClass,
		E2E:               wait + time.Duration(wasted)*attemptOverhead,
		Retries:           retries,
		RetriesDenied:     denied,
		ThrottledAttempts: throttledAttempts,
	}
	return false
}

// attemptRejected decides one attempt of a struck arrival. The first
// attempt of a struck arrival always fails (that is what "struck" means);
// retries fail with the cause's conditional probability.
func (st *FnState) attemptRejected(outage, throttle, congest bool, seq, try int) (bool, string) {
	if outage {
		if try == 0 || draw(st.key, saltOutage, seq, try) < outageRetryFail {
			return true, "unavailable"
		}
	}
	if throttle {
		if try == 0 || draw(st.key, saltThrottle, seq, try) < throttleRetryFail {
			return true, "throttle"
		}
	}
	if congest {
		if try == 0 || draw(st.key, saltCongest, seq, try) < throttleRetryFail {
			return true, "throttle"
		}
	}
	return false, ""
}

func backoffFor(try int) time.Duration {
	b := retryBackoff << uint(try)
	if b > maxBackoff || b <= 0 {
		b = maxBackoff
	}
	return b
}

func (st *FnState) notePressure(load float64) {
	st.pressure = pressureDecay*st.pressure + (1-pressureDecay)*load
}

// Drop returns the last Admit failure's description.
func (st *FnState) Drop() Drop { return st.drop }

// Outcome returns the last Serve's full record. It points into the
// state, so it holds until the next Admit.
func (st *FnState) Outcome() *Outcome { return &st.out }

// Serve runs the admitted request: applies brownout/latency stretches,
// the fallback wrapper (and its breaker), and hedging; bills every
// attempt; and returns how long the pool instance is held busy.
func (st *FnState) Serve(at time.Duration, cold bool) time.Duration {
	seq := st.seq
	cfg := &st.eng.cfg
	out := &st.out // Admit's bookkeeping: retries, and the wait in E2E
	retryWait := out.E2E
	out.Cold = cold

	brownout, brownoutOn := st.active(Brownout, at)
	out.Brownout = brownoutOn

	init := time.Duration(0)
	if cold {
		init = st.fn.ColdInit
		if brownoutOn {
			// The dependency brownout stretches the import window — the
			// load_native call waiting on a browned-out backing service.
			init = time.Duration(float64(init) * brownout.Severity)
		}
	}
	exec := st.fn.Exec
	if storm, on := st.active(LatencyStorm, at); on && draw(st.key, saltLatency, seq, 0) < storm.Frac {
		exec = time.Duration(float64(exec) * storm.Severity)
	}
	out.Init, out.Exec = init, exec

	// Fallback wrapper: the debloated artifact hits an uncovered path and
	// re-invokes the original — both attempts billed (§5.4). A brownout
	// raises the uncovered rate to its Frac: new cold paths appear
	// exactly when the original's import is slowest.
	pFb := fallbackRate
	if brownoutOn && brownout.Frac > pFb {
		pFb = brownout.Frac
	}
	willFb := IsFallbackArm(st.fn.Arm) && draw(st.key, saltFallback, seq, 0) < pFb

	// At most three bills (primary, fallback re-invocation, hedge), kept
	// in a stack array: Serve runs once per served request.
	type bill struct{ init, exec time.Duration }
	var bills [3]bill
	nb := 0
	var serveE2E, busy time.Duration

	routed := false
	if st.breaker != nil {
		st.breaker.TryHalfOpen(at)
		if st.breaker.State() == "OPEN" {
			routed = true
		} else {
			ev := st.breaker.Observe(at, willFb)
			if ev == "open" || ev == "reopen" {
				out.BreakerOpened = true
			}
		}
	}

	switch {
	case routed:
		// Breaker open: route straight to the original image. Cold starts
		// pay the original's (brownout-stretched) init; one bill.
		if cold {
			init = st.fn.FallbackInit
			if brownoutOn {
				init = time.Duration(float64(init) * brownout.Severity)
			}
			out.Init = init
		}
		out.Routed = true
		bills[nb] = bill{init, exec}
		nb++
		serveE2E = init + exec
		busy = serveE2E
	case willFb:
		// The debloated attempt runs to its AttributeError (half the
		// handler, conventionally), then the original cold-starts on top:
		// the stretched original init is the second bill — the brownout's
		// double-billing amplifier.
		fbInit := st.fn.FallbackInit
		if brownoutOn {
			fbInit = time.Duration(float64(fbInit) * brownout.Severity)
		}
		out.Fallback = true
		bills[nb], bills[nb+1] = bill{init, exec / 2}, bill{fbInit, exec}
		nb += 2
		serveE2E = init + exec/2 + fbInit + exec
		busy = init + exec/2 // the pool instance is freed at the throw
	default:
		bills[nb] = bill{init, exec}
		nb++
		serveE2E = init + exec
		busy = serveE2E
	}

	// Hedging: once a request outlives the function's own p95, fire a
	// speculative second attempt (modeled as landing warm: exec only,
	// re-drawn against the latency storm) and take whichever finishes
	// first. Both attempts are billed — latency bought with dollars.
	if cfg.Mitigations.Hedge && st.served >= hedgeWarmup && !out.Fallback && !routed {
		delay := time.Duration(st.hist.Quantile(0.95) * float64(time.Second))
		if delay > 0 && serveE2E > delay {
			hexec := st.fn.Exec
			if storm, on := st.active(LatencyStorm, at); on && draw(st.key, saltLatency, seq, 1) < storm.Frac {
				hexec = time.Duration(float64(hexec) * storm.Severity)
			}
			out.Hedged = true
			bills[nb] = bill{0, hexec}
			nb++
			if hedged := delay + hexec; hedged < serveE2E {
				serveE2E = hedged
				out.HedgeWon = true
			}
		}
	}

	st.hist.Observe(serveE2E.Seconds())
	st.served++

	for _, b := range bills[:nb] {
		out.BilledInit += b.init
		out.BilledExec += b.exec
		billed := cfg.Pricing.BillDuration(b.init + b.exec)
		out.Billed += billed
		out.CostUSD += cfg.Pricing.Cost(billed, st.fn.MemoryMB)
	}
	out.E2E = retryWait + time.Duration(out.Retries)*attemptOverhead + serveE2E
	out.Busy = busy
	return busy
}
