package faas

import (
	"fmt"
	"testing"
)

func TestSetAliasValidation(t *testing.T) {
	p := New(DefaultConfig())
	p.Deploy(testApp("fn"))

	if err := p.SetAlias("alias"); err == nil {
		t.Error("alias with no routes should be rejected")
	}
	if err := p.SetAlias("alias", AliasRoute{Target: "ghost", Weight: 1}); err == nil {
		t.Error("alias to undeployed target should be rejected")
	}
	if err := p.SetAlias("alias", AliasRoute{Target: "fn", Weight: 0}); err == nil {
		t.Error("zero weight should be rejected")
	}
	if err := p.SetAlias("fn", AliasRoute{Target: "fn", Weight: 1}); err == nil {
		t.Error("alias shadowing a deployed function should be rejected")
	}
	if err := p.SetAlias("alias", AliasRoute{Target: "fn", Weight: 1}); err != nil {
		t.Errorf("valid alias rejected: %v", err)
	}
	if inv, err := p.Invoke("alias", nil); err != nil || inv.Function != "fn" {
		t.Errorf("alias served by %v (err %v), want fn", inv, err)
	}
}

func TestAliasWeightedSplitIsDeterministic(t *testing.T) {
	serve := func() map[string]int {
		p := New(DefaultConfig())
		a, b := testApp("fn-a"), testApp("fn-b")
		p.Deploy(a)
		p.Deploy(b)
		if err := p.SetAlias("fn", AliasRoute{Target: "fn-a", Weight: 0.9}, AliasRoute{Target: "fn-b", Weight: 0.1}); err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for i := 0; i < 200; i++ {
			inv, err := p.Invoke("fn", map[string]any{"id": i})
			if err != nil {
				t.Fatal(err)
			}
			counts[inv.Function]++
		}
		return counts
	}
	c1, c2 := serve(), serve()
	if fmt.Sprint(c1) != fmt.Sprint(c2) {
		t.Fatalf("same seed split differs: %v vs %v", c1, c2)
	}
	if c1["fn-a"] < 150 || c1["fn-b"] < 5 {
		t.Errorf("split far from 90/10: %v", c1)
	}
	if c1["fn-a"]+c1["fn-b"] != 200 {
		t.Errorf("requests lost: %v", c1)
	}
}

// A single-route alias must not consume random draws: a run routed through
// a 100% alias produces byte-identical invocation streams to a direct run.
func TestSingleRouteAliasConsumesNoDraws(t *testing.T) {
	run := func(useAlias bool) string {
		cfg := DefaultConfig()
		cfg.Faults = FaultConfig{Enabled: true, SlowColdRate: 0.5, SlowColdFactor: 3, MemorySpikeRate: 0.3, MemorySpikeMB: 64}
		cfg.FaultSeed = 11
		p := New(cfg)
		p.Deploy(testApp("fn"))
		name := "fn"
		if useAlias {
			if err := p.SetAlias("route", AliasRoute{Target: "fn", Weight: 1}); err != nil {
				t.Fatal(err)
			}
			name = "route"
		}
		out := ""
		for i := 0; i < 20; i++ {
			inv, err := p.Invoke(name, map[string]any{"id": i})
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("%s %v %v\n", inv.Function, inv.Exec, inv.CostUSD)
		}
		return out
	}
	if run(false) != run(true) {
		t.Error("single-route alias perturbed the jitter stream")
	}
}

func TestDeployVersionAndSetFallback(t *testing.T) {
	p := New(DefaultConfig())
	orig := testApp("fn")
	deb := fallbackApp("fn")

	origName := p.DeployVersion("fn", "orig", orig)
	debName := p.DeployVersion("fn", "v1", deb)
	if origName != "fn@orig" || debName != "fn@v1" {
		t.Fatalf("version names = %q, %q", origName, debName)
	}
	if orig.Name != "fn" || deb.Name != "fn" {
		t.Error("DeployVersion must not rename the caller's app")
	}
	if err := p.SetFallback(debName, "ghost"); err == nil {
		t.Error("fallback to undeployed function should be rejected")
	}
	if err := p.SetFallback(debName, origName); err != nil {
		t.Fatal(err)
	}

	inv, err := p.Invoke(debName, map[string]any{"mode": "advanced"})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.FallbackUsed {
		t.Error("versioned deploy should fall back on AttributeError")
	}
	if inv.Function != debName {
		t.Errorf("fallback invocation attributed to %q, want %q", inv.Function, debName)
	}
}

func TestAliasOverVersionsRoutesFallback(t *testing.T) {
	p := New(DefaultConfig())
	p.DeployVersion("fn", "orig", testApp("fn"))
	deb := p.DeployVersion("fn", "v1", fallbackApp("fn"))
	if err := p.SetFallback(deb, "fn@orig"); err != nil {
		t.Fatal(err)
	}
	if err := p.SetAlias("fn", AliasRoute{Target: deb, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	inv, err := p.Invoke("fn", map[string]any{"mode": "advanced"})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.FallbackUsed || inv.Function != "fn@v1" {
		t.Errorf("inv = %+v, want fallback served under fn@v1", inv)
	}
}
