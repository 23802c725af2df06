package rollout

import (
	"strings"
	"testing"
	"time"

	"repro/internal/appspec"
	"repro/internal/debloat"
	"repro/internal/faas"
	"repro/internal/pyruntime"
	"repro/internal/vfs"
)

// fullApp is an "original": it serves both basic and advanced events.
func fullApp(name string) *appspec.App {
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    if event.get("mode", "basic") == "advanced":
        return lib.advanced()
    return {"ok": True}
`)
	fs.Write("site-packages/lib/__init__.py", `
load_native(150, 40)

def advanced():
    return {"ok": True, "advanced": True}
`)
	return &appspec.App{
		Name: name, Image: fs, Entry: "handler", Handler: "handler",
		Oracle:       []appspec.TestCase{{Name: "basic", Event: map[string]any{"id": 1}}},
		SetupDelayMS: 200, ImageSizeMB: 100,
	}
}

// trimmedApp is an over-trimmed "debloated" artifact: lib.advanced was
// removed, so advanced-mode events raise AttributeError.
func trimmedApp(name string) *appspec.App {
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    if event.get("mode", "basic") == "advanced":
        return lib.advanced()
    return {"ok": True}
`)
	fs.Write("site-packages/lib/__init__.py", "load_native(40, 10)\n")
	return &appspec.App{
		Name: name, Image: fs, Entry: "handler", Handler: "handler",
		Oracle:       []appspec.TestCase{{Name: "basic", Event: map[string]any{"id": 1}}},
		SetupDelayMS: 80, ImageSizeMB: 30,
	}
}

// cleanApp is a well-trimmed artifact: smaller, still complete.
func cleanApp(name string) *appspec.App {
	a := fullApp(name)
	a.SetupDelayMS = 80
	a.ImageSizeMB = 30
	return a
}

func fakeResult(orig, deb *appspec.App) *debloat.Result {
	return &debloat.Result{App: deb, Original: orig, DebloatTime: 3 * time.Second}
}

var basicEvent = map[string]any{"id": 1}
var advEvent = map[string]any{"mode": "advanced"}

// invoke routes one request through the controller.
func invoke(t *testing.T, c *Controller, name string, event map[string]any) *faas.Invocation {
	t.Helper()
	invs, err := c.InvokeGroup(name, []map[string]any{event})
	if err != nil {
		t.Fatal(err)
	}
	return invs[0]
}

// Policy formats the canary ramp as percent:bake pairs, then the breaker's
// trip rules and the gate's tick.
func TestFormatStages(t *testing.T) {
	want := "canary: 5%:30s,25%:30s,100%:1m0s; breaker: rate ≥0.50 over 1m0s (min 6) or 4 consecutive; gate: error burn on 10s ticks"
	if got := Policy(); got != want {
		t.Errorf("Policy() = %q, want %q", got, want)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	cfg := BreakerConfig{Window: time.Minute, MinRequests: 4, FallbackRate: 0.5,
		Consecutive: 3, Cooldown: 2 * time.Minute, Probes: 2}
	b := NewBreaker(cfg)

	// Consecutive trip.
	at := time.Second
	for i := 0; i < 2; i++ {
		if tr := b.Observe(at, true); tr != "" {
			t.Fatalf("tripped early: %s", tr)
		}
		at += time.Second
	}
	if tr := b.Observe(at, true); tr != "open" {
		t.Fatalf("3rd consecutive fallback: %s, state %s", tr, b.state)
	}
	// Cooldown must elapse before probing.
	if b.TryHalfOpen(at + time.Minute) {
		t.Error("half-open before cooldown")
	}
	if !b.TryHalfOpen(at + 3*time.Minute) {
		t.Error("half-open after cooldown refused")
	}
	// A failed probe re-opens.
	if tr := b.Observe(at+3*time.Minute, true); tr != "reopen" {
		t.Errorf("failed probe: %s", tr)
	}
	if !b.TryHalfOpen(at + 6*time.Minute) {
		t.Error("second half-open refused")
	}
	// Clean probes close.
	if tr := b.Observe(at+6*time.Minute, false); tr != "" {
		t.Errorf("1st probe: %s", tr)
	}
	if tr := b.Observe(at+6*time.Minute+time.Second, false); tr != "close" {
		t.Errorf("2nd probe: %s", tr)
	}
	if b.opens != 2 {
		t.Errorf("opens = %d", b.opens)
	}

	// Rate trip: mixed traffic, over threshold within the window.
	b2 := NewBreaker(cfg)
	at = time.Second
	seq := []bool{true, false, true, false} // 50% of 4 >= MinRequests
	tripped := ""
	for _, fb := range seq {
		tripped = b2.Observe(at, fb)
		at += time.Second
	}
	if tripped != "open" {
		t.Errorf("rate trip = %q, state %s", tripped, b2.state)
	}

	// Samples outside the window roll off: old fallbacks can't feed the
	// rate rule once they age out (a clean request first breaks the
	// consecutive run, which deliberately ignores the window).
	b3 := NewBreaker(cfg)
	b3.Observe(0, true)
	b3.Observe(1*time.Second, true)
	at = 2 * time.Minute // both samples aged out
	for i := 0; i < 6; i++ {
		if tr := b3.Observe(at, i == 1); tr != "" {
			t.Errorf("stale samples tripped breaker: %s", tr)
		}
		at += time.Second
	}
}

func controllerFor(t *testing.T, orig, deb *appspec.App) (*faas.Platform, *Controller) {
	t.Helper()
	p := faas.New(faas.DefaultConfig())
	c := New(p, Config{Debloat: debloat.DefaultConfig()})
	if err := c.Manage(fakeResult(orig, deb)); err != nil {
		t.Fatal(err)
	}
	return p, c
}

// promote bakes fn@v1 through the whole ramp (two minutes of quiet gates)
// with basic traffic every 10 s.
func promote(t *testing.T, p *faas.Platform, c *Controller) {
	t.Helper()
	for i := 0; i < 15; i++ {
		invoke(t, c, "fn", basicEvent)
		p.Advance(10 * time.Second)
	}
	if s, _ := c.Status("fn"); s.Active != "fn@v1" || s.Candidate != "" {
		t.Fatalf("status = %+v, want promoted fn@v1", s)
	}
}

func TestCanaryPromotesThroughQuietGates(t *testing.T) {
	p, c := controllerFor(t, fullApp("fn"), cleanApp("fn"))
	promote(t, p, c)
	log := c.EventLog()
	for _, want := range []string{"stage 2/3 weight 25%", "stage 3/3 weight 100%", "canary PROMOTE fn@v1"} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
	if inv := invoke(t, c, "fn", basicEvent); inv.Function != "fn@v1" {
		t.Errorf("steady state served by %s", inv.Function)
	}
}

// brokenApp's handler raises on every request, without an AttributeError
// for the fallback to catch.
func brokenApp(name string) *appspec.App {
	a := cleanApp(name)
	a.Image.Write("handler.py", `
def handler(event, context):
    raise ValueError("broken build")
`)
	return a
}

// A candidate whose every request fails fires the error-rate gate, which
// rolls the canary back to the original before the ramp completes.
func TestCanaryRollsBackOnFiringGate(t *testing.T) {
	p, c := controllerFor(t, fullApp("fn"), brokenApp("fn"))
	failed := 0
	for i := 0; i < 60; i++ {
		if invoke(t, c, "fn", basicEvent).Err != nil {
			failed++
		}
		p.Advance(time.Second)
	}
	s, _ := c.Status("fn")
	if s.Candidate != "" || s.Active != "" {
		t.Fatalf("status = %+v, want the canary rolled back and nothing active", s)
	}
	if failed == 0 || !strings.Contains(c.EventLog(), "canary ROLLBACK fn@v1 gate canary-err firing") {
		t.Fatalf("%d failed requests; log:\n%s", failed, c.EventLog())
	}
	if inv := invoke(t, c, "fn", basicEvent); inv.Function != "fn@orig" || inv.Err != nil {
		t.Errorf("after rollback: served by %s err=%v, want fn@orig", inv.Function, inv.Err)
	}
}

// An advanced-mode storm on a promoted, over-trimmed artifact opens the
// breaker, which routes traffic straight to the original.
func TestBreakerOpensOnStormAndRoutesToOriginal(t *testing.T) {
	p, c := controllerFor(t, fullApp("fn"), trimmedApp("fn"))
	promote(t, p, c)

	// Storm: every request needs the removed attribute; the fourth
	// consecutive fallback opens the breaker.
	for i := 0; i < 4; i++ {
		if inv := invoke(t, c, "fn", advEvent); !inv.FallbackUsed || inv.Err != nil {
			t.Fatalf("storm request %d: fallback=%v err=%v", i, inv.FallbackUsed, inv.Err)
		}
		p.Advance(time.Second)
	}
	s, _ := c.Status("fn")
	if s.Breaker != "OPEN" || s.Opens != 1 {
		t.Fatalf("breaker = %s opens=%d, want OPEN/1", s.Breaker, s.Opens)
	}

	// While open, traffic goes straight to the original: no fallback, no
	// double bill, still serves the advanced mode.
	inv := invoke(t, c, "fn", advEvent)
	if inv.Function != "fn@orig" || inv.FallbackUsed || inv.Err != nil {
		t.Fatalf("open-breaker request served by %s fallback=%v err=%v", inv.Function, inv.FallbackUsed, inv.Err)
	}
	if log := c.EventLog(); !strings.Contains(log, "breaker OPEN fn@v1") || !strings.Contains(log, "heal rerun cases=1") {
		t.Errorf("log missing the open and its heal:\n%s", log)
	}
}

// doomedApp is an original that also fails the advanced mode, so a heal
// that adds the storm's input to the oracle cannot succeed.
func doomedApp(name string) *appspec.App {
	a := fullApp(name)
	a.Image.Write("site-packages/lib/__init__.py", `
load_native(150, 40)

def advanced():
    raise ValueError("advanced mode is broken")
`)
	return a
}

// When the heal fails, the breaker stays open through its cooldown and
// then probes the artifact: a failed probe re-opens it, clean probes close
// it.
func TestBreakerHalfOpensWhenHealFails(t *testing.T) {
	p, c := controllerFor(t, doomedApp("fn"), trimmedApp("fn"))
	promote(t, p, c)
	for i := 0; i < breakerPolicy.Consecutive; i++ {
		inv := invoke(t, c, "fn", advEvent)
		if perr, ok := inv.Err.(*pyruntime.PyErr); !inv.FallbackUsed || !ok || perr.ClassName() != "ValueError" {
			t.Fatalf("storm request %d: fallback=%v err=%v, want the original's ValueError", i, inv.FallbackUsed, inv.Err)
		}
		p.Advance(time.Second)
	}
	if !strings.Contains(c.EventLog(), "heal FAILED") {
		t.Fatalf("log missing the failed heal:\n%s", c.EventLog())
	}

	// The cooldown passes; the first probe fails and re-opens the breaker.
	p.Advance(breakerPolicy.Cooldown)
	if inv := invoke(t, c, "fn", advEvent); inv.Function != "fn@v1" || !inv.FallbackUsed {
		t.Fatalf("probe served by %s fallback=%v, want a failing probe of fn@v1", inv.Function, inv.FallbackUsed)
	}
	if s, _ := c.Status("fn"); s.Breaker != "OPEN" || s.Opens != 2 {
		t.Fatalf("after a failed probe: breaker = %s opens=%d, want OPEN/2", s.Breaker, s.Opens)
	}

	// After another cooldown, clean probes close it.
	p.Advance(breakerPolicy.Cooldown)
	for i := 0; i < breakerPolicy.Probes; i++ {
		if inv := invoke(t, c, "fn", basicEvent); inv.Function != "fn@v1" {
			t.Fatalf("probe served by %s", inv.Function)
		}
		p.Advance(time.Second)
	}
	if s, _ := c.Status("fn"); s.Breaker != "CLOSED" || s.Heals != 0 {
		t.Fatalf("after clean probes: breaker = %s heals=%d, want CLOSED/0", s.Breaker, s.Heals)
	}
	log := c.EventLog()
	for _, want := range []string{"breaker HALF_OPEN", "breaker OPEN fn@v1 (probe failed)", "breaker CLOSED"} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
}

func TestControllerReplayIsDeterministic(t *testing.T) {
	run := func() (string, string) {
		p, c := controllerFor(t, fullApp("fn"), trimmedApp("fn"))
		for i := 0; i < 40; i++ {
			ev := basicEvent
			if i%5 == 4 {
				ev = advEvent
			}
			invoke(t, c, "fn", ev)
			p.Advance(7 * time.Second)
		}
		return c.EventLog(), string(c.OpenMetrics())
	}
	log1, om1 := run()
	log2, om2 := run()
	if log1 != log2 {
		t.Errorf("event logs differ:\n%s\n---\n%s", log1, log2)
	}
	if om1 != om2 {
		t.Errorf("openmetrics differ:\n%s\n---\n%s", om1, om2)
	}
	if !strings.Contains(om1, "lambdatrim_rollout_") {
		t.Errorf("openmetrics missing namespace:\n%s", om1)
	}
}

func TestUnmanagedNamePassesThrough(t *testing.T) {
	p := faas.New(faas.DefaultConfig())
	c := New(p, Config{})
	p.Deploy(fullApp("plain"))
	if inv := invoke(t, c, "plain", basicEvent); inv.Function != "plain" {
		t.Errorf("served by %s", inv.Function)
	}
	if c.EventLog() != "" {
		t.Errorf("unmanaged invoke logged: %q", c.EventLog())
	}
}

func TestManageRejectsDuplicates(t *testing.T) {
	c := New(faas.New(faas.DefaultConfig()), Config{})
	if err := c.Manage(fakeResult(fullApp("fn"), cleanApp("fn"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Manage(fakeResult(fullApp("fn"), cleanApp("fn"))); err == nil {
		t.Error("duplicate Manage accepted")
	}
}
