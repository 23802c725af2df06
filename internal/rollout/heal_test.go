package rollout

import (
	"strings"
	"testing"
	"time"

	"repro/internal/appcorpus"
	"repro/internal/debloat"
	"repro/internal/faas"
)

// TestSelfHealLoop drives the whole closed loop on a real corpus app:
// λ-trim over-trims the dynamically-accessed attribute, the advanced-mode
// storm trips the breaker, the controller reruns debloating with the
// failing input as a new oracle case, and the repaired artifact canaries
// back to 100% — after which advanced traffic is served natively by the
// healed version, no fallback, no double bill.
func TestSelfHealLoop(t *testing.T) {
	app := appcorpus.MustBuild("dna-visualization")
	res, err := debloat.Run(app, debloat.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	name := app.Name
	basic := res.Original.Oracle[0].Event
	adv := map[string]any{"mode": "advanced"}

	p := faas.New(faas.DefaultConfig())
	c := New(p, Config{Debloat: debloat.DefaultConfig()})
	if err := c.Manage(res); err != nil {
		t.Fatal(err)
	}

	// Quiet basic traffic bakes v1 through the ramp.
	for i := 0; i < 15; i++ {
		invoke(t, c, name, basic)
		p.Advance(10 * time.Second)
	}
	s, _ := c.Status(name)
	if s.Active != name+"@v1" {
		t.Fatalf("v1 not promoted: %+v", s)
	}

	// Advanced-mode storm: v1 lost the dynamically-accessed attribute, so
	// every request falls back — until the breaker opens and the rerun
	// starts.
	for i := 0; i < breakerPolicy.Consecutive; i++ {
		if inv := invoke(t, c, name, adv); !inv.FallbackUsed {
			t.Fatalf("storm request %d did not fall back (served %s)", i, inv.Function)
		}
		p.Advance(time.Second)
	}
	s, _ = c.Status(name)
	if s.Opens != 1 {
		t.Fatalf("breaker opens = %d, want 1", s.Opens)
	}

	// While the repair bakes, the breaker serves the original — advanced
	// mode works, nothing double-bills.
	inv := invoke(t, c, name, adv)
	if inv.Function != name+"@orig" || inv.FallbackUsed {
		t.Fatalf("open-breaker request: served %s fallback=%v", inv.Function, inv.FallbackUsed)
	}

	// Give the (simulated) rerun time to finish, then bake the healed
	// canary through the ramp with mixed traffic.
	p.Advance(5 * time.Minute)
	for i := 0; i < 15; i++ {
		ev := basic
		if i%2 == 1 {
			ev = adv
		}
		invoke(t, c, name, ev)
		p.Advance(10 * time.Second)
	}

	s, _ = c.Status(name)
	if s.Heals != 1 || s.Version != 2 || s.Active != name+"@v2" {
		t.Fatalf("heal did not promote v2: %+v", s)
	}
	inv = invoke(t, c, name, adv)
	if inv.Function != name+"@v2" || inv.FallbackUsed {
		t.Errorf("healed artifact: served %s fallback=%v, want native v2", inv.Function, inv.FallbackUsed)
	}

	log := c.EventLog()
	for _, want := range []string{"breaker OPEN", "heal rerun cases=1", "heal deploy", "canary PROMOTE " + name + "@v2"} {
		if !strings.Contains(log, want) {
			t.Errorf("event log missing %q:\n%s", want, log)
		}
	}
}
