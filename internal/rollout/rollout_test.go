package rollout

import (
	"strings"
	"testing"
	"time"

	"repro/internal/appspec"
	"repro/internal/debloat"
	"repro/internal/faas"
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

func TestFormatStages(t *testing.T) {
	if spec := FormatStages(DefaultStages()); spec != "1%:2m0s,10%:2m0s,50%:5m0s,100%:5m0s" {
		t.Errorf("FormatStages(DefaultStages()) = %q", spec)
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

func controllerFor(t *testing.T, cfg Config, orig, deb *appspec.App) (*faas.Platform, *Controller) {
	t.Helper()
	p := faas.New(faas.DefaultConfig())
	c := New(p, cfg)
	if err := c.Manage(fakeResult(orig, deb)); err != nil {
		t.Fatal(err)
	}
	return p, c
}

func TestCanaryPromotesThroughQuietGates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stages = []Stage{{Weight: 0.1, Bake: time.Minute}, {Weight: 1, Bake: time.Minute}}
	cfg.SelfHeal = false
	p, c := controllerFor(t, cfg, fullApp("fn"), cleanApp("fn"))

	for i := 0; i < 30; i++ {
		if _, err := c.Invoke("fn", basicEvent); err != nil {
			t.Fatal(err)
		}
		p.Advance(10 * time.Second)
	}
	s, ok := c.Status("fn")
	if !ok {
		t.Fatal("fn not managed")
	}
	if s.Active != "fn@v1" || s.Candidate != "" {
		t.Fatalf("status = %+v, want promoted fn@v1", s)
	}
	if !strings.Contains(c.EventLog(), "canary PROMOTE fn@v1") {
		t.Errorf("log missing promote:\n%s", c.EventLog())
	}
	inv, err := c.Invoke("fn", basicEvent)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Function != "fn@v1" {
		t.Errorf("steady state served by %s", inv.Function)
	}
}

func TestBreakerOpensOnStormAndRoutesToOriginal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stages = []Stage{{Weight: 1, Bake: time.Hour}} // hold at 100% canary
	cfg.SelfHeal = false
	cfg.Breaker = BreakerConfig{Window: time.Minute, MinRequests: 100,
		FallbackRate: 1, Consecutive: 3, Cooldown: 2 * time.Minute, Probes: 2}
	p, c := controllerFor(t, cfg, fullApp("fn"), trimmedApp("fn"))

	// Storm: every request needs the removed attribute.
	var fallbacks int
	for i := 0; i < 3; i++ {
		inv, err := c.Invoke("fn", advEvent)
		if err != nil {
			t.Fatal(err)
		}
		if inv.FallbackUsed {
			fallbacks++
		}
		p.Advance(time.Second)
	}
	if fallbacks != 3 {
		t.Fatalf("fallbacks = %d, want 3", fallbacks)
	}
	s, _ := c.Status("fn")
	if s.Breaker != "OPEN" || s.Opens != 1 {
		t.Fatalf("breaker = %s opens=%d, want OPEN/1", s.Breaker, s.Opens)
	}

	// While open, traffic goes straight to the original: no fallback, no
	// double bill, still serves the advanced mode.
	inv, err := c.Invoke("fn", advEvent)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Function != "fn@orig" || inv.FallbackUsed {
		t.Fatalf("open-breaker request served by %s fallback=%v", inv.Function, inv.FallbackUsed)
	}

	// After the cooldown, probes with basic traffic close the breaker.
	p.Advance(3 * time.Minute)
	for i := 0; i < 2; i++ {
		inv, err := c.Invoke("fn", basicEvent)
		if err != nil {
			t.Fatal(err)
		}
		if inv.Function != "fn@v1" {
			t.Fatalf("probe served by %s", inv.Function)
		}
		p.Advance(time.Second)
	}
	s, _ = c.Status("fn")
	if s.Breaker != "CLOSED" {
		t.Fatalf("breaker = %s after clean probes", s.Breaker)
	}
	log := c.EventLog()
	for _, want := range []string{"breaker OPEN", "breaker HALF_OPEN", "breaker CLOSED"} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
}

func TestControllerReplayIsDeterministic(t *testing.T) {
	run := func() (string, string) {
		cfg := DefaultConfig()
		cfg.Stages = []Stage{{Weight: 0.5, Bake: 30 * time.Second}, {Weight: 1, Bake: 30 * time.Second}}
		cfg.SelfHeal = false
		p, c := controllerFor(t, cfg, fullApp("fn"), trimmedApp("fn"))
		for i := 0; i < 40; i++ {
			ev := basicEvent
			if i%5 == 4 {
				ev = advEvent
			}
			if _, err := c.Invoke("fn", ev); err != nil {
				t.Fatal(err)
			}
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
	c := New(p, DefaultConfig())
	p.Deploy(fullApp("plain"))
	inv, err := c.Invoke("plain", basicEvent)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Function != "plain" {
		t.Errorf("served by %s", inv.Function)
	}
	if c.EventLog() != "" {
		t.Errorf("unmanaged invoke logged: %q", c.EventLog())
	}
}

func TestManageRejectsDuplicates(t *testing.T) {
	p := faas.New(faas.DefaultConfig())
	c := New(p, DefaultConfig())
	if err := c.Manage(fakeResult(fullApp("fn"), cleanApp("fn"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Manage(fakeResult(fullApp("fn"), cleanApp("fn"))); err == nil {
		t.Error("duplicate Manage accepted")
	}
	_ = p
}
