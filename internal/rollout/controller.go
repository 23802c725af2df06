// Package rollout is a closed-loop deployment controller for debloated
// functions, layered on the faas simulator. It drives the full lifecycle
// the paper leaves to operators: deploy a debloated artifact as a new
// version, canary it behind a weighted alias, gate each stage on SLO burn
// rates over the canary's own traffic, trip a circuit breaker when the
// §5.4 fallback wrapper turns into a storm, and — when the storm is caused
// by over-trimming — collect the failing inputs as new oracle cases,
// re-debloat (§9), and canary the repaired artifact through the same
// pipeline. Everything runs on virtual time and seeded draws, so a replay
// is byte-identical across runs and worker counts.
package rollout

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/appspec"
	"repro/internal/debloat"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
)

// Config connects the controller to its run; its policy is fixed (see
// Policy).
type Config struct {
	// Debloat configures the self-heal Rerun.
	Debloat debloat.Config
	// Tracer receives rollout.* events (nil disables).
	Tracer *obs.Tracer
}

// stage is one canary step: route weight of the traffic to the candidate
// and hold for bake of quiet gate time before advancing.
type stage struct {
	weight float64 // the candidate's traffic fraction, in (0, 1]
	bake   time.Duration
}

// The controller's fixed policy, sized to the rollout experiment's seeded
// trace: second-scale bakes so a first canary promotes before the storm,
// and a breaker window matching the storm's request rate. Every storm
// that opens a breaker starts a self-heal.
var (
	// stages is the canary ramp.
	stages = []stage{
		{weight: 0.05, bake: 30 * time.Second},
		{weight: 0.25, bake: 30 * time.Second},
		{weight: 1.00, bake: time.Minute},
	}
	// breakerPolicy tunes each function's fallback-storm breaker.
	breakerPolicy = BreakerConfig{
		Window:       time.Minute,
		MinRequests:  6,
		FallbackRate: 0.5,
		Consecutive:  4,
		Cooldown:     10 * time.Minute,
		Probes:       3,
	}
	// retry is the client-side retry policy of managed invocations.
	retry = faas.DefaultRetryPolicy()
)

const (
	// gateResolution is the health gate's evaluation tick. The gate is
	// one error-rate SLO, "canary-err", over the candidate's own samples
	// with a gateBudget error budget; a FIRING gate rolls the canary back.
	gateResolution = 10 * time.Second
	gateBudget     = 0.05
	// maxHealCases caps collected failing inputs per heal round.
	maxHealCases = 8
)

// Policy renders the fixed policy in one line: the canary ramp as
// percent:bake pairs, the breaker's trip rules and the gate's tick.
func Policy() string {
	ramp := make([]string, len(stages))
	for i, s := range stages {
		ramp[i] = pct(s.weight) + ":" + s.bake.String()
	}
	br := breakerPolicy
	return fmt.Sprintf("canary: %s; breaker: rate ≥%.2f over %s (min %d) or %d consecutive; gate: error burn on %s ticks",
		strings.Join(ramp, ","), br.FallbackRate, br.Window, br.MinRequests, br.Consecutive, gateResolution)
}

// fnState is the controller's per-function record.
type fnState struct {
	name string
	orig string // name@orig deployment

	active    string          // promoted debloated deployment ("" if none)
	activeRes *debloat.Result // debloat result behind active

	candidate string          // canarying deployment ("" if none)
	candRes   *debloat.Result // debloat result behind candidate
	version   int             // last deployed debloated version number

	stage      int
	stageStart time.Duration
	gate       *monitor.Monitor
	gateSeen   int // alerts already consumed from the gate

	breaker *Breaker
	opens   int // opens carried over from retired breakers

	healing     bool
	healedRes   *debloat.Result
	healReadyAt time.Duration
	healCases   []appspec.TestCase
	healSeen    map[string]bool
	heals       int

	routeSig string
}

// Controller is the closed-loop deployment controller. It is driven
// entirely by the invocations routed through it: state transitions happen
// on the platform's virtual clock, never on wall time, so replays are
// deterministic. Not safe for concurrent use (neither is the platform).
type Controller struct {
	p     *faas.Platform
	cfg   Config
	fns   map[string]*fnState
	order []string
	log   []string
	store *monitor.Store
}

// New wraps a platform with a rollout controller.
func New(p *faas.Platform, cfg Config) *Controller {
	return &Controller{
		p:     p,
		cfg:   cfg,
		fns:   make(map[string]*fnState),
		store: monitor.NewStore(gateResolution, 0),
	}
}

// Manage takes ownership of a debloat result: the original deploys as
// <name>@orig, the debloated artifact as <name>@v1 with its fallback wired
// to the original, and a canary starts at stage one. Invocations of <name>
// through the controller are routed by the rollout state from here on.
func (c *Controller) Manage(res *debloat.Result) error {
	name := res.Original.Name
	if _, dup := c.fns[name]; dup {
		return fmt.Errorf("rollout: %q already managed", name)
	}
	st := &fnState{
		name:     name,
		breaker:  NewBreaker(breakerPolicy),
		healSeen: make(map[string]bool),
	}
	st.orig = c.p.DeployVersion(name, "orig", res.Original)
	c.fns[name] = st
	c.order = append(c.order, name)
	c.startCanary(st, res)
	return c.route(st)
}

// startCanary deploys the next version of the artifact and begins the ramp.
func (c *Controller) startCanary(st *fnState, res *debloat.Result) {
	st.version++
	v := "v" + strconv.Itoa(st.version)
	st.candidate = c.p.DeployVersion(st.name, v, res.App)
	// The fallback must be wired before any traffic: the original IS the
	// safety net that makes canarying an over-trimmed artifact survivable.
	if err := c.p.SetFallback(st.candidate, st.orig); err != nil {
		panic("rollout: " + err.Error()) // both deployed above; unreachable
	}
	st.candRes = res
	st.stage = 0
	st.stageStart = c.p.Now()
	st.gate = monitor.New(monitor.Config{
		Resolution: gateResolution,
		SLOs:       []monitor.SLO{{Name: "canary-err", Kind: monitor.KindErrorRate, Budget: gateBudget}},
	})
	st.gateSeen = 0
	first := stages[0]
	c.eventf(st, "canary %s stage 1/%d weight %s bake %s",
		st.candidate, len(stages), pct(first.weight), first.bake)
	c.emit(st, "rollout.canary.start", obs.String("candidate", st.candidate))
	c.record(st, "canary_start")
}

// InvokeGroup delivers a burst concurrently (routing fixed at the burst's
// start), then observes each outcome. Unmanaged names pass straight through
// to the platform.
func (c *Controller) InvokeGroup(name string, events []map[string]any) ([]*faas.Invocation, error) {
	st, ok := c.fns[name]
	if !ok {
		return c.p.InvokeGroupWithRetry(name, events, retry)
	}
	if err := c.stepAndRoute(st); err != nil {
		return nil, err
	}
	start := c.p.Now()
	invs, err := c.p.InvokeGroupWithRetry(name, events, retry)
	if err != nil {
		return nil, err
	}
	for i, inv := range invs {
		c.observe(st, events[i], inv, start+inv.E2E)
	}
	return invs, nil
}

func (c *Controller) stepAndRoute(st *fnState) error {
	c.step(st)
	return c.route(st)
}

// step applies every time-based transition due at the platform clock.
func (c *Controller) step(st *fnState) {
	now := c.p.Now()

	// A repaired artifact whose (simulated) re-debloat has finished gets
	// deployed and canaried like any other candidate. The broken artifact
	// is retired outright — the breaker guarding it resets with the ramp.
	if st.healing && st.healedRes != nil && now >= st.healReadyAt {
		res := st.healedRes
		st.healedRes = nil
		st.healing = false
		st.active = ""
		st.activeRes = nil
		st.opens += st.breaker.opens
		st.breaker = NewBreaker(breakerPolicy)
		st.heals++
		c.eventf(st, "heal deploy oracle=%d cases", len(res.Original.Oracle))
		c.emit(st, "rollout.heal.deploy")
		c.record(st, "heal")
		c.startCanary(st, res)
	}

	// Open breakers cool down into probing — unless a heal is in flight,
	// in which case the replacement artifact supersedes the probe.
	if !st.healing && st.breaker.TryHalfOpen(now) {
		c.eventf(st, "breaker HALF_OPEN probes=%d", breakerPolicy.Probes)
		c.emit(st, "rollout.breaker.half_open")
	}

	// Canary gate: FIRING rolls back immediately; a full bake of quiet
	// gate time advances the ramp. Both are frozen while the breaker is
	// away from CLOSED — storm handling outranks the ramp.
	if st.candidate == "" || st.breaker.state != breakerClosed {
		return
	}
	alerts := st.gate.Alerts()
	fired := ""
	for _, a := range alerts[st.gateSeen:] {
		if a.Firing {
			fired = a.SLO
			break
		}
	}
	st.gateSeen = len(alerts)
	if fired != "" {
		c.eventf(st, "canary ROLLBACK %s gate %s firing", st.candidate, fired)
		c.emit(st, "rollout.canary.rollback", obs.String("gate", fired))
		c.record(st, "rollback")
		st.candidate = ""
		st.candRes = nil
		st.gate = nil
		return
	}
	if now-st.stageStart < stages[st.stage].bake {
		return
	}
	st.stage++
	st.stageStart = now
	if st.stage >= len(stages) {
		st.active = st.candidate
		st.activeRes = st.candRes
		st.candidate = ""
		st.candRes = nil
		st.gate = nil
		c.eventf(st, "canary PROMOTE %s", st.active)
		c.emit(st, "rollout.canary.promote", obs.String("active", st.active))
		c.record(st, "promote")
		return
	}
	next := stages[st.stage]
	c.eventf(st, "canary stage %d/%d weight %s bake %s",
		st.stage+1, len(stages), pct(next.weight), next.bake)
	c.emit(st, "rollout.canary.advance", obs.String("weight", pct(next.weight)))
}

// route reprograms the alias whenever the desired split changed.
func (c *Controller) route(st *fnState) error {
	baseline := st.orig
	if st.active != "" {
		baseline = st.active
	}
	var routes []faas.AliasRoute
	switch {
	case st.breaker.state == breakerOpen:
		// Storm: skip the doomed debloated attempt (and its double bill)
		// entirely and serve the original.
		routes = []faas.AliasRoute{{Target: st.orig, Weight: 1}}
	case st.breaker.state == breakerHalfOpen:
		probe := st.candidate
		if probe == "" {
			probe = st.active
		}
		if probe == "" {
			probe = st.orig
		}
		routes = []faas.AliasRoute{{Target: probe, Weight: 1}}
	case st.candidate != "":
		w := stages[st.stage].weight
		if w >= 1 {
			routes = []faas.AliasRoute{{Target: st.candidate, Weight: 1}}
		} else {
			routes = []faas.AliasRoute{
				{Target: st.candidate, Weight: w},
				{Target: baseline, Weight: 1 - w},
			}
		}
	default:
		routes = []faas.AliasRoute{{Target: baseline, Weight: 1}}
	}
	sig := fmt.Sprint(routes)
	if sig == st.routeSig {
		return nil
	}
	st.routeSig = sig
	return c.p.SetAlias(st.name, routes...)
}

// observe feeds one completed request back into the loop.
func (c *Controller) observe(st *fnState, event map[string]any, inv *faas.Invocation, at time.Duration) {
	c.record(st, "req")
	served := inv.Function
	debloated := (st.candidate != "" && served == st.candidate) ||
		(st.active != "" && served == st.active) ||
		(st.breaker.state == breakerHalfOpen && served != st.orig)
	if !debloated {
		return
	}
	c.record(st, "deb_req")
	if inv.FallbackUsed {
		c.record(st, "fallback")
		c.collectHealCase(st, event)
	}
	if st.candidate != "" && served == st.candidate {
		st.gate.Observe(at, faas.SampleOf(inv))
	}
	switch st.breaker.Observe(at, inv.FallbackUsed) {
	case "open":
		c.eventf(st, "breaker OPEN %s fallback_rate=%.2f window_n=%d",
			served, st.breaker.rate, st.breaker.count)
		c.emit(st, "rollout.breaker.open", obs.String("target", served))
		c.record(st, "breaker_open")
		c.selfHeal(st, at)
	case "reopen":
		c.eventf(st, "breaker OPEN %s (probe failed)", served)
		c.emit(st, "rollout.breaker.open", obs.String("target", served), obs.String("cause", "probe"))
		c.record(st, "breaker_open")
		c.selfHeal(st, at)
	case "close":
		st.stageStart = at // a fresh quiet period starts the bake over
		c.eventf(st, "breaker CLOSED after %d clean probes", breakerPolicy.Probes)
		c.emit(st, "rollout.breaker.close")
		c.record(st, "breaker_close")
	}
}

// collectHealCase keeps the failing input as a future oracle case.
func (c *Controller) collectHealCase(st *fnState, event map[string]any) {
	if len(st.healCases) >= maxHealCases {
		return
	}
	// fmt formats maps with sorted keys, so this key is deterministic.
	key := fmt.Sprintf("%v", event)
	if st.healSeen[key] {
		return
	}
	st.healSeen[key] = true
	st.healCases = append(st.healCases, appspec.TestCase{
		Name:  fmt.Sprintf("heal-%d", len(st.healSeen)),
		Event: event,
	})
}

// selfHeal launches a re-debloat from the storm's collected inputs. The
// Rerun models its own simulated duration; the repaired artifact deploys
// once that much virtual time has passed.
func (c *Controller) selfHeal(st *fnState, at time.Duration) {
	if st.healing || len(st.healCases) == 0 {
		return
	}
	base := st.activeRes
	if st.candidate != "" {
		base = st.candRes
	}
	if base == nil {
		return
	}
	cases := st.healCases
	st.healCases = nil
	res, err := debloat.Rerun(base, cases, c.cfg.Debloat)
	if err != nil {
		c.eventf(st, "heal FAILED: %v", err)
		c.emit(st, "rollout.heal.failed", obs.String("err", err.Error()))
		return
	}
	st.healing = true
	st.healedRes = res
	st.healReadyAt = at + res.DebloatTime
	// The storming candidate is retired immediately; the breaker keeps
	// traffic on the original until the repaired artifact is ready.
	if st.candidate != "" {
		st.candidate = ""
		st.candRes = nil
		st.gate = nil
	}
	c.eventf(st, "heal rerun cases=%d ready_in=%s", len(cases), res.DebloatTime.Round(time.Millisecond))
	c.emit(st, "rollout.heal.rerun", obs.Int("cases", int64(len(cases))))
}

// Status summarizes one managed function for tables and tests.
type Status struct {
	Function  string
	Orig      string
	Active    string
	Candidate string
	Stage     int // 1-based; 0 when no canary in flight
	Breaker   string
	Opens     int
	Heals     int
	Version   int
}

// Status reports the state of a managed function.
func (c *Controller) Status(name string) (Status, bool) {
	st, ok := c.fns[name]
	if !ok {
		return Status{}, false
	}
	stage := 0
	if st.candidate != "" {
		stage = st.stage + 1
	}
	return Status{
		Function:  st.name,
		Orig:      st.orig,
		Active:    st.active,
		Candidate: st.candidate,
		Stage:     stage,
		Breaker:   st.breaker.state.String(),
		Opens:     st.opens + st.breaker.opens,
		Heals:     st.heals,
		Version:   st.version,
	}, true
}

// EventLog renders the controller's transition log, one line per event.
func (c *Controller) EventLog() string {
	if len(c.log) == 0 {
		return ""
	}
	return strings.Join(c.log, "\n") + "\n"
}

// OpenMetrics renders the controller's counters as an OpenMetrics
// exposition, namespaced lambdatrim_rollout_*.
func (c *Controller) OpenMetrics() []byte {
	var b strings.Builder
	for _, series := range c.store.Names() {
		mn := obs.MetricName("rollout_" + series)
		obs.WriteFamily(&b, mn, "counter", mn+"_total "+strconv.FormatUint(c.store.Total(series).Count, 10))
	}
	names := append([]string(nil), c.order...)
	sort.Strings(names)
	stageName := obs.MetricName("rollout_canary_stage")
	openName := obs.MetricName("rollout_breaker_open_state")
	var stage, breakerOpen []string
	for _, name := range names {
		s, _ := c.Status(name)
		open := 0
		if s.Breaker == "OPEN" {
			open = 1
		}
		label := "{fn=\"" + name + "\"}"
		stage = append(stage, stageName+label+" "+strconv.Itoa(s.Stage))
		breakerOpen = append(breakerOpen, openName+label+" "+strconv.Itoa(open))
	}
	if len(names) > 0 {
		obs.WriteFamily(&b, stageName, "gauge", stage...)
		obs.WriteFamily(&b, openName, "gauge", breakerOpen...)
	}
	b.WriteString("# EOF\n")
	return []byte(b.String())
}

// eventf appends one line to the transition log.
func (c *Controller) eventf(st *fnState, format string, args ...any) {
	line := monitor.FmtOffset(c.p.Now()) + " fn=" + st.name + " " + fmt.Sprintf(format, args...)
	c.log = append(c.log, line)
}

// emit forwards a transition to the tracer's event log (nil-safe).
func (c *Controller) emit(st *fnState, name string, attrs ...obs.Attr) {
	attrs = append([]obs.Attr{obs.String("fn", st.name)}, attrs...)
	c.cfg.Tracer.Emit(name, c.p.Now(), attrs...)
	c.cfg.Tracer.Metrics().Inc(name, 1)
}

// record bumps a per-function counter series in the rollout store.
func (c *Controller) record(st *fnState, series string) {
	c.store.Record(series+"."+st.name, c.p.Now(), 1)
}

func pct(w float64) string {
	return strconv.FormatFloat(w*100, 'g', -1, 64) + "%"
}
