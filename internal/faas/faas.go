// Package faas simulates a serverless platform with AWS-Lambda-like
// semantics: on-demand instances, cold and warm starts, a keep-alive pool,
// and duration×memory billing (Eq. 1 of the paper):
//
//	C = Configured Memory × Billed Duration × Unit Price
//
// The lifecycle of an invocation follows Figure 1 of the paper: instance
// init and image transmission are performed by the provider and are not
// billed; Function Initialization (imports, environment setup) and Function
// Execution are billed. The simulator also implements λ-trim's fallback
// deployment (§5.4): a debloated function that raises AttributeError
// re-invokes its original as an independent serverless function.
package faas

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/appspec"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/pyruntime"
	"repro/internal/simtime"
)

// Pricing models a platform's billing.
type Pricing struct {
	// USDPerGBSecond is the duration-memory unit price.
	USDPerGBSecond float64
	// Granularity is the billing rounding unit (1 ms on AWS; GCP rounds to
	// 100 ms, Azure to 1 s).
	Granularity time.Duration
	// MinMemoryMB is the smallest billable memory configuration.
	MinMemoryMB int
	// MemoryStepMB is the configuration step (AWS allows 1 MB steps above
	// the floor).
	MemoryStepMB int
}

// AWSPricing is AWS Lambda's x86 pricing as used in the paper
// ($0.0000162109 per GB-second, 1 ms granularity, 128 MB floor).
func AWSPricing() Pricing {
	return Pricing{
		USDPerGBSecond: 0.0000162109,
		Granularity:    time.Millisecond,
		MinMemoryMB:    128,
		MemoryStepMB:   1,
	}
}

// GCPPricing approximates GCP Cloud Run functions (100 ms rounding).
func GCPPricing() Pricing {
	return Pricing{
		USDPerGBSecond: 0.0000165,
		Granularity:    100 * time.Millisecond,
		MinMemoryMB:    128,
		MemoryStepMB:   1,
	}
}

// AzurePricing approximates Azure Functions consumption plan (1 s rounding).
func AzurePricing() Pricing {
	return Pricing{
		USDPerGBSecond: 0.000016,
		Granularity:    time.Second,
		MinMemoryMB:    128,
		MemoryStepMB:   1,
	}
}

// Cost computes Eq. 1 for a billed duration and configured memory.
// Non-positive durations or memory configurations bill nothing (a killed
// invocation that never reached a billable phase must not produce a
// negative line item).
func (p Pricing) Cost(billed time.Duration, memoryMB int) float64 {
	if billed <= 0 || memoryMB <= 0 {
		return 0
	}
	gb := float64(memoryMB) / 1024.0
	return gb * billed.Seconds() * p.USDPerGBSecond
}

// BillDuration rounds a duration up to the billing granularity.
// Non-positive durations round to zero. A Granularity <= 0 disables
// rounding and passes the duration through unchanged — callers that model
// exotic providers can rely on that pass-through.
func (p Pricing) BillDuration(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	if p.Granularity <= 0 {
		return d
	}
	g := p.Granularity
	return ((d + g - 1) / g) * g
}

// ConfigureMemory rounds a peak footprint up to a billable configuration.
func (p Pricing) ConfigureMemory(peakMB float64) int {
	mem := int(math.Ceil(peakMB))
	if mem < p.MinMemoryMB {
		mem = p.MinMemoryMB
	}
	if p.MemoryStepMB > 1 {
		mem = ((mem + p.MemoryStepMB - 1) / p.MemoryStepMB) * p.MemoryStepMB
	}
	return mem
}

// baseRuntimeMB is the interpreter/runtime footprint added to every
// instance (CPython ~35 MB on Lambda).
const baseRuntimeMB = 35

// The platform's fixed policy.
const (
	// KeepAlive is how long an idle instance survives (AWS: up to
	// ~45-60 min; GCP: <15 min). Paper experiments assume 15 min.
	KeepAlive = 15 * time.Minute
	// RoutingOverhead models request routing/queueing on every invocation
	// (present in E2E, never billed).
	RoutingOverhead = 40 * time.Millisecond
	// FallbackSetup is the wrapper's overhead when the fallback path
	// triggers (~50 ms in §8.7).
	FallbackSetup = 50 * time.Millisecond
)

// Config parameterizes the platform simulator.
type Config struct {
	Pricing Pricing
	// InstanceInit and TransferRateMBps model the provider-side cold path
	// when UseAppSetupDelay is false: instance init plus image
	// transmission at the given rate (Figure 1's unbilled phases).
	InstanceInit     time.Duration
	TransferRateMBps float64
	// UseAppSetupDelay, when true, uses each app's calibrated
	// SetupDelayMS instead of the image model (matches Table 1 E2E).
	UseAppSetupDelay bool

	// EnforceMemory, when true, kills any invocation whose footprint
	// exceeds the configured memory with an OOM error, billing the partial
	// duration up to the kill (Lambda's "Runtime exited with error:
	// signal: killed" semantics). Off by default so cost-only studies keep
	// the permissive pre-failure-model behavior.
	EnforceMemory bool
	// DefaultTimeout bounds the billed window (Init+Exec) of every
	// function. Zero disables the timeout.
	DefaultTimeout time.Duration
	// FaultSeed seeds the deterministic fault injector and the retry
	// jitter. The same seed, config, and invocation sequence reproduce
	// byte-identical invocation logs.
	FaultSeed int64
	// Faults configures the injector; the zero value injects nothing.
	Faults FaultConfig

	// Tracer, when set, records every deployment and invocation as a span
	// tree over the platform's simulated clock plus a metrics stream
	// (per-phase latency histograms, fault counters, retry totals). Nil
	// (the default) disables tracing with no behavioral or billing change.
	Tracer *obs.Tracer

	// Monitor, when set, receives one sample per completed invocation
	// attempt on the platform's virtual timeline — feeding the sim-time
	// TSDB, SLO burn-rate evaluation, and the cost-attribution ledger.
	// Nil (the default) disables monitoring with no behavioral change.
	Monitor *monitor.Monitor
}

// DefaultConfig mirrors the paper's AWS Lambda setup.
func DefaultConfig() Config {
	return Config{
		Pricing:          AWSPricing(),
		InstanceInit:     350 * time.Millisecond,
		TransferRateMBps: 600,
		UseAppSetupDelay: true,
	}
}

// StartKind distinguishes cold from warm starts.
type StartKind int

const (
	// ColdStart initializes a fresh instance on the critical path.
	ColdStart StartKind = iota
	// WarmStart reuses a kept-alive instance.
	WarmStart
)

func (k StartKind) String() string {
	if k == WarmStart {
		return "warm"
	}
	return "cold"
}

// Invocation is the full record of one function invocation.
type Invocation struct {
	Function string
	Kind     StartKind

	// Phase latencies (Figure 1). InstanceInit and ImageTransfer are zero
	// on warm starts and never billed.
	InstanceInit  time.Duration
	ImageTransfer time.Duration
	Init          time.Duration // Function Initialization (billed, cold only)
	Exec          time.Duration // Function Execution (billed)
	E2E           time.Duration

	// BilledDuration is Init+Exec (cold) or Exec (warm), rounded up.
	BilledDuration time.Duration
	// MemoryMB is the billed memory configuration.
	MemoryMB int
	// PeakMB is the measured footprint including the runtime base.
	PeakMB float64
	// CostUSD is Eq. 1 applied to this invocation.
	CostUSD float64

	// Result carries the handler's return value repr.
	Result string
	// Stdout carries printed output.
	Stdout string
	// Err is set when the invocation failed: the platform killed or
	// rejected it, or the handler raised and no fallback absorbed it. A
	// fallback attempt's own failure is the invocation's.
	Err error
	// Class classifies platform-level failures (OOM, timeout, throttle,
	// init crash); FailureHandler marks application exceptions and
	// FailureNone a successful invocation. For throttled records, Kind is
	// meaningless (no instance was ever assigned).
	Class FailureClass

	// Attempt is this record's 1-based attempt index under a retrying
	// client (zero when invoked directly).
	Attempt int
	// Attempts, AttemptCostsUSD and BackoffWait are set on the final
	// record returned by InvokeWithRetry: total attempts made, the bill
	// of each attempt (failed ones included — the client pays for every
	// billed attempt), and the total client-side backoff wait. CostUSD,
	// BilledDuration and E2E then aggregate across all attempts.
	Attempts        int
	AttemptCostsUSD []float64
	BackoffWait     time.Duration
	// FallbackUsed marks invocations served by the fallback original
	// function after an AttributeError in the debloated one.
	FallbackUsed bool
	// FallbackKind is the start kind of the fallback invocation when used.
	FallbackKind StartKind
}

// instance is one warm-capable execution environment.
type instance struct {
	interp    *pyruntime.Interp
	handler   pyruntime.Value
	lastUsed  time.Duration // completion time of the last request served
	busyUntil time.Duration // instance is serving a request until then
}

// deployment is a registered function.
type deployment struct {
	app       *appspec.App
	fallback  string // name of the fallback function, if any
	instances []*instance
	// asts is the image's parse cache: the deploy profile fills it and
	// every cold start reads it, so each module of the image is parsed once
	// per deployment. Parsing consumes no virtual time.
	asts *pyruntime.ASTCache
	// configuredMB is fixed at Deploy time — from the appspec's explicit
	// MemoryMB or from a profiling invocation, as operators do with AWS
	// Lambda Power Tuning. It never changes with invocation order.
	configuredMB int
	invocations  int
	coldStarts   int
	// Failure counters (per attempt, not per client-visible request).
	oomKills    int
	timeouts    int
	throttles   int
	initCrashes int
}

// Platform is the simulator. It is not safe for concurrent use.
type Platform struct {
	cfg     Config
	now     time.Duration
	fns     map[string]*deployment
	order   []string
	aliases map[string]*aliasEntry
	// rng drives the fault injector and retry jitter; draws happen in a
	// fixed order per invocation so a fixed FaultSeed reproduces runs.
	rng *rand.Rand
	// aliasRng drives weighted alias routing from its own stream: alias
	// draws must not perturb the fault/jitter sequence, so a replay with no
	// aliases (or single-route aliases) consumes no draws and stays
	// byte-identical to an alias-free build.
	aliasRng *rand.Rand
}

// New creates a platform.
func New(cfg Config) *Platform {
	return &Platform{
		cfg:      cfg,
		fns:      make(map[string]*deployment),
		aliases:  make(map[string]*aliasEntry),
		rng:      rand.New(rand.NewSource(cfg.FaultSeed)),
		aliasRng: rand.New(rand.NewSource(cfg.FaultSeed ^ aliasSeedSalt)),
	}
}

// Now returns the platform timeline.
func (p *Platform) Now() time.Duration { return p.now }

// Advance moves the platform timeline forward (idle time between requests).
func (p *Platform) Advance(d time.Duration) {
	if d > 0 {
		p.now += d
	}
}

// Deploy registers an app under its name. Redeploying replaces the function
// and discards warm instances (AWS behaves the same on code updates — the
// paper exploits this to force cold starts).
//
// The memory configuration is fixed here: from the appspec's explicit
// MemoryMB if set, otherwise from a profiling invocation of the first
// oracle event on a scratch interpreter (not billed, not counted in
// FunctionStats). Configuring at deploy time — instead of latching the
// first invocation's peak — keeps billing and OOM enforcement independent
// of event arrival order.
func (p *Platform) Deploy(app *appspec.App) {
	if _, exists := p.fns[app.Name]; !exists {
		p.order = append(p.order, app.Name)
	}
	d := &deployment{app: app, asts: pyruntime.NewASTCache()}
	if prev, exists := p.fns[app.Name]; exists {
		// Redeploying replaces the code but keeps routing config: the
		// fallback wiring survives a code update (on real platforms alias
		// routing is separate from the code artifact), so a repaired
		// artifact pushed over a fallback-equipped name keeps its safety
		// net instead of silently letting errors propagate.
		d.fallback = prev.fallback
	}
	if app.MemoryMB > 0 {
		d.configuredMB = p.cfg.Pricing.ConfigureMemory(float64(app.MemoryMB))
	} else {
		d.configuredMB = p.cfg.Pricing.ConfigureMemory(d.profilePeakMB())
	}
	p.fns[app.Name] = d
	if tr := p.cfg.Tracer; tr != nil {
		tr.StartChild(nil, "deploy "+app.Name, "faas", p.now).
			Add(obs.Int("memory_mb", int64(d.configuredMB))).
			Finish(p.now)
		tr.Metrics().Inc("faas.deploys", 1)
	}
}

// profilePeakMB measures the app's peak footprint (runtime base included)
// by invoking it once with the first oracle case on a throwaway
// interpreter. Errors are tolerated: whatever peak was reached before the
// failure is what gets provisioned.
func (d *deployment) profilePeakMB() float64 {
	interp := pyruntime.New(d.app.Image)
	interp.SetASTCache(d.asts)
	var tc appspec.TestCase
	if len(d.app.Oracle) > 0 {
		tc = d.app.Oracle[0]
	}
	interp.Invoke(d.app, tc.Event, tc.Name)
	return simtime.MBf(interp.Alloc.Peak()) + baseRuntimeMB
}

// DeployWithFallback registers a debloated app plus its original as the
// fallback function (§5.4).
func (p *Platform) DeployWithFallback(debloated, original *appspec.App) {
	fallbackName := original.Name + "-fallback"
	orig := original.Clone()
	orig.Name = fallbackName
	p.Deploy(orig)
	p.Deploy(debloated)
	p.fns[debloated.Name].fallback = fallbackName
}

// Stats summarizes a deployment's lifetime counters. Failure counters are
// per attempt: a request that throttles twice and then succeeds counts
// three invocations and two throttles.
type Stats struct {
	Invocations int
	ColdStarts  int
	OOMKills    int
	Timeouts    int
	Throttles   int
	InitCrashes int
}

// FunctionStats returns counters for a deployed function.
func (p *Platform) FunctionStats(name string) (Stats, bool) {
	d, ok := p.fns[name]
	if !ok {
		return Stats{}, false
	}
	return Stats{
		Invocations: d.invocations,
		ColdStarts:  d.coldStarts,
		OOMKills:    d.oomKills,
		Timeouts:    d.timeouts,
		Throttles:   d.throttles,
		InitCrashes: d.initCrashes,
	}, true
}

// Invoke sends an event to a function at the current platform time.
func (p *Platform) Invoke(name string, event map[string]any) (*Invocation, error) {
	return p.invokeNamed(name, event, true, nil)
}

// invokeNamed resolves the deployment, invokes it, and serves the fallback
// path when an AttributeError escapes a fallback-equipped function. The
// parent span, when tracing, groups the primary and fallback (or retry)
// invocations under one client-visible request.
func (p *Platform) invokeNamed(name string, event map[string]any, advanceClock bool, parent *obs.Span) (*Invocation, error) {
	target := p.resolveAlias(name)
	d, ok := p.fns[target]
	if !ok {
		return nil, fmt.Errorf("faas: no function named %q", target)
	}
	inv, err := p.invoke(d, event, advanceClock, parent)
	if err != nil {
		return nil, err
	}

	// Fallback path: AttributeError in a debloated function re-invokes the
	// original as an independent serverless function (§5.4, Table 4).
	if inv.Err != nil && d.fallback != "" && isAttributeError(inv.Err) {
		if tr := p.cfg.Tracer; tr != nil {
			tr.Emit("faas.fallback", p.now,
				obs.String("fn", target), obs.String("to", d.fallback))
			tr.Metrics().Inc("faas.fallbacks", 1)
		}
		fb := p.fns[d.fallback]
		fbInv, ferr := p.invoke(fb, event, advanceClock, parent)
		if ferr != nil {
			return nil, ferr
		}
		total := *fbInv
		total.Function = target
		total.FallbackUsed = true
		total.FallbackKind = fbInv.Kind
		total.Kind = inv.Kind
		// E2E: failed primary attempt + wrapper setup + fallback E2E.
		total.E2E = inv.E2E + FallbackSetup + fbInv.E2E
		// The user pays for both attempts.
		total.CostUSD = inv.CostUSD + fbInv.CostUSD
		total.BilledDuration = inv.BilledDuration + fbInv.BilledDuration
		// Result, Class and Err are the fallback attempt's own: a fallback
		// that itself fails reports its failure, and a retrying client
		// retries it like any other attempt.
		return &total, nil
	}
	return inv, nil
}

func isAttributeError(err error) bool {
	// Walk the implicit exception chain (__context__): an AttributeError
	// that application code caught and re-wrapped in a derived error still
	// means the debloated artifact is missing an attribute.
	pe, ok := err.(*pyruntime.PyErr)
	return ok && pe.HasClass("AttributeError")
}

func (p *Platform) invoke(d *deployment, event map[string]any, advanceClock bool, parent *obs.Span) (*Invocation, error) {
	d.invocations++
	inv := &Invocation{Function: d.app.Name, MemoryMB: d.configuredMB}
	start := p.now

	// Throttling: under a per-function concurrency limit, a request that
	// arrives while that many instances are busy is rejected up front —
	// never billed, never assigned an instance (Lambda's 429).
	if lim := p.cfg.Faults.ConcurrencyLimit; p.cfg.Faults.Enabled && lim > 0 {
		if p.busyInstances(d) >= lim {
			d.throttles++
			inv.Class = FailureThrottle
			inv.Err = &FailureError{Class: FailureThrottle, Function: d.app.Name,
				Detail: fmt.Sprintf("concurrency limit %d reached", lim)}
			inv.E2E = RoutingOverhead
			if advanceClock {
				p.now += inv.E2E
			}
			p.recordInvocation(parent, start, inv)
			return inv, nil
		}
	}

	inst := p.warmInstance(d)
	coldInstance := inst == nil
	if coldInstance {
		inst = &instance{}
		inv.Kind = ColdStart
		d.coldStarts++

		// Provider-side, unbilled phases.
		if p.cfg.UseAppSetupDelay {
			delay := time.Duration(d.app.SetupDelayMS * float64(time.Millisecond))
			// Split for reporting: instance init vs image transmission,
			// 40/60 as a fixed convention.
			inv.InstanceInit = delay * 2 / 5
			inv.ImageTransfer = delay - inv.InstanceInit
		} else {
			inv.InstanceInit = p.cfg.InstanceInit
			if p.cfg.TransferRateMBps > 0 {
				inv.ImageTransfer = time.Duration(d.app.ImageSizeMB / p.cfg.TransferRateMBps * float64(time.Second))
			}
		}
		// Fault draw 1 (cold): a slow cold start stretches the
		// provider-side phases (contended image cache / placement).
		if p.faultFires(p.cfg.Faults.SlowColdRate) && p.cfg.Faults.SlowColdFactor > 1 {
			inv.InstanceInit = time.Duration(float64(inv.InstanceInit) * p.cfg.Faults.SlowColdFactor)
			inv.ImageTransfer = time.Duration(float64(inv.ImageTransfer) * p.cfg.Faults.SlowColdFactor)
			p.emitFault("slow-cold", d.app.Name)
		}

		// Function Initialization: import the entry module and look the
		// handler up.
		interp := pyruntime.New(d.app.Image)
		interp.SetASTCache(d.asts)
		t0 := interp.Clock.Now()
		handler, err := interp.LoadHandler(d.app)
		if errors.Is(err, pyruntime.ErrNoHandler) {
			return nil, fmt.Errorf("faas: %s: handler %q not found", d.app.Name, d.app.Handler)
		}
		if err != nil {
			inv.Err = err
			inv.Class = FailureHandler
			inv.E2E = RoutingOverhead + inv.InstanceInit + inv.ImageTransfer + (interp.Clock.Now() - t0)
			p.recordInvocation(parent, start, inv)
			return inv, nil
		}
		inst.interp = interp
		inst.handler = handler
		inv.Init = interp.Clock.Now() - t0
		// Fault draw 2 (cold): a transient init crash kills the fresh
		// environment at the end of initialization. The init duration is
		// billed (Lambda bills a failed INIT phase) and the instance never
		// joins the pool, so a client retry pays a fresh cold start.
		if p.faultFires(p.cfg.Faults.InitCrashRate) {
			p.emitFault("init-crash", d.app.Name)
			d.initCrashes++
			inv.Class = FailureInitCrash
			inv.Err = &FailureError{Class: FailureInitCrash, Function: d.app.Name,
				Detail: "transient crash during function initialization"}
			inv.PeakMB = simtime.MBf(interp.Alloc.Peak()) + baseRuntimeMB
			inv.BilledDuration = p.cfg.Pricing.BillDuration(inv.Init)
			inv.CostUSD = p.cfg.Pricing.Cost(inv.BilledDuration, inv.MemoryMB)
			inv.E2E = RoutingOverhead + inv.InstanceInit + inv.ImageTransfer + inv.Init
			if advanceClock {
				p.now += inv.E2E
			}
			p.recordInvocation(parent, start, inv)
			return inv, nil
		}
	} else {
		inv.Kind = WarmStart
	}

	// Function Execution, with the deployment's attempt count as the
	// request ID.
	interp := inst.interp
	t0 := interp.Clock.Now()
	out0 := len(interp.OutputString())
	result, err := interp.CallHandler(inst.handler, d.app, event, strconv.Itoa(d.invocations))
	switch err.(type) {
	case nil:
		inv.Result = pyruntime.Repr(result)
	case *pyruntime.PyErr:
		inv.Err = err
		inv.Class = FailureHandler
	default:
		return nil, fmt.Errorf("faas: bad event: %w", err)
	}
	inv.Exec = interp.Clock.Now() - t0
	inv.Stdout = interp.OutputString()[out0:]

	// Footprint. Fault draw 3 (every attempt): an input-dependent memory
	// spike inflates this invocation's footprint without changing the
	// deployment's configuration.
	inv.PeakMB = simtime.MBf(interp.Alloc.Peak()) + baseRuntimeMB
	if p.faultFires(p.cfg.Faults.MemorySpikeRate) && p.cfg.Faults.MemorySpikeMB > 0 {
		inv.PeakMB += p.cfg.Faults.MemorySpikeMB
		p.emitFault("memory-spike", d.app.Name)
	}

	// Failure enforcement over the billed window, in chronological order:
	// whichever of OOM (footprint crosses the configured memory, assumed
	// to grow linearly across the window) and timeout strikes first kills
	// the invocation; the partial duration up to the kill is billed.
	window := inv.Exec
	if inv.Kind == ColdStart {
		window += inv.Init
	}
	killAt := window
	killClass := FailureNone
	var killDetail string
	if p.cfg.EnforceMemory && inv.MemoryMB > 0 && inv.PeakMB > float64(inv.MemoryMB) {
		killAt = time.Duration(float64(window) * float64(inv.MemoryMB) / inv.PeakMB)
		killClass = FailureOOM
		killDetail = fmt.Sprintf("peak %.1f MB exceeds configured %d MB", inv.PeakMB, inv.MemoryMB)
	}
	if timeout := p.cfg.DefaultTimeout; timeout > 0 && window > timeout && timeout < killAt {
		killAt = timeout
		killClass = FailureTimeout
		killDetail = fmt.Sprintf("billed window %v exceeds timeout %v", window, timeout)
	}

	instanceDied := false
	if killClass != FailureNone {
		initBilled := window - inv.Exec // init share of the billed window
		if killAt < initBilled {
			// Killed while still initializing: the environment never
			// became serviceable.
			inv.Init = killAt
			inv.Exec = 0
			instanceDied = true
		} else {
			inv.Exec = killAt - initBilled
		}
		inv.Class = killClass
		inv.Err = &FailureError{Class: killClass, Function: d.app.Name, Detail: killDetail}
		inv.Result = ""
		switch killClass {
		case FailureOOM:
			// An OOM kill tears the whole environment down.
			d.oomKills++
			instanceDied = true
		case FailureTimeout:
			// A timeout restarts the runtime but the environment is
			// reused (unless it died during init above).
			d.timeouts++
		}
	}

	// Billing: partial duration up to the kill, full window otherwise.
	billed := inv.Exec
	if inv.Kind == ColdStart {
		billed += inv.Init
	}
	inv.BilledDuration = p.cfg.Pricing.BillDuration(billed)
	inv.CostUSD = p.cfg.Pricing.Cost(inv.BilledDuration, inv.MemoryMB)

	inv.E2E = RoutingOverhead + inv.InstanceInit + inv.ImageTransfer + inv.Init + inv.Exec

	if instanceDied {
		if !coldInstance {
			p.dropInstance(d, inst)
		}
	} else {
		if coldInstance {
			d.instances = append(d.instances, inst)
		}
		inst.busyUntil = p.now + inv.E2E
		inst.lastUsed = inst.busyUntil
	}
	if advanceClock {
		p.now += inv.E2E
	}
	p.recordInvocation(parent, start, inv)
	return inv, nil
}

// faultFires draws from the seeded injector stream. No draw is consumed
// when the injector is disabled or the rate is zero, so fault-free runs
// stay byte-identical to pre-failure-model behavior.
func (p *Platform) faultFires(rate float64) bool {
	if !p.cfg.Faults.Enabled || rate <= 0 {
		return false
	}
	return p.rng.Float64() < rate
}

// busyInstances counts instances still serving a request at the current
// platform time.
func (p *Platform) busyInstances(d *deployment) int {
	n := 0
	for _, inst := range d.instances {
		if inst.busyUntil > p.now {
			n++
		}
	}
	return n
}

// dropInstance removes a dead instance from the pool.
func (p *Platform) dropInstance(d *deployment, dead *instance) {
	live := d.instances[:0]
	for _, inst := range d.instances {
		if inst != dead {
			live = append(live, inst)
		}
	}
	d.instances = live
}

// warmInstance returns an idle live instance or nil, expiring stale ones.
// Instances still serving a request (busyUntil in the future) are kept but
// not eligible — that is what turns a burst into a cold-start storm.
func (p *Platform) warmInstance(d *deployment) *instance {
	live := d.instances[:0]
	var found *instance
	for _, inst := range d.instances {
		if inst.busyUntil <= p.now && p.now-inst.lastUsed > KeepAlive {
			continue
		}
		live = append(live, inst)
		if inst.busyUntil > p.now {
			continue // still serving a request
		}
		if found == nil {
			found = inst
		}
	}
	d.instances = live
	return found
}

// MeasureColdStart deploys the app on a fresh platform and performs one
// cold invocation with the first oracle event — the basic measurement
// behind Table 1 and Figure 2.
func MeasureColdStart(app *appspec.App, cfg Config) (*Invocation, error) {
	p := New(cfg)
	p.Deploy(app)
	event := map[string]any{}
	if len(app.Oracle) > 0 {
		event = app.Oracle[0].Event
	}
	inv, err := p.Invoke(app.Name, event)
	if err != nil {
		return nil, err
	}
	if inv.Err != nil {
		return nil, fmt.Errorf("faas: %s cold start raised: %v", app.Name, inv.Err)
	}
	return inv, nil
}

// MeasureWarmStart performs one cold start to prime an instance, then one
// warm invocation, returning the warm record.
func MeasureWarmStart(app *appspec.App, cfg Config) (*Invocation, error) {
	p := New(cfg)
	p.Deploy(app)
	event := map[string]any{}
	if len(app.Oracle) > 0 {
		event = app.Oracle[0].Event
	}
	if _, err := p.Invoke(app.Name, event); err != nil {
		return nil, err
	}
	inv, err := p.Invoke(app.Name, event)
	if err != nil {
		return nil, err
	}
	if inv.Kind != WarmStart {
		return nil, fmt.Errorf("faas: expected warm start for %s", app.Name)
	}
	return inv, nil
}
