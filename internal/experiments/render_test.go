package experiments

import (
	"strings"
	"testing"
)

// Render-output smoke tests: every driver's text rendering must contain
// the rows and headline lines cmd/experiments users rely on. These reuse
// the shared suite, so they add no pipeline cost.

// results caches target results from the shared suite, so tests that only
// read a target's output share one run of its driver (drivers are
// deterministic). Tests in this package do not run in parallel.
var results = map[string]Renderer{}

// result returns the named target's result from the shared suite.
func result(t *testing.T, name string) Renderer {
	t.Helper()
	if r, ok := results[name]; ok {
		return r
	}
	for _, tg := range Targets {
		if tg.Name == name {
			r, err := tg.Run(suite)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			results[name] = r
			return r
		}
	}
	t.Fatalf("no target %q", name)
	return nil
}

func TestRenderTable1(t *testing.T) {
	out := result(t, "table1").Render()
	for _, needle := range []string{"Table 1", "resnet", "huggingface", "RainbowCake", "PyPI"} {
		if !strings.Contains(out, needle) {
			t.Errorf("render missing %q", needle)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 22 {
		t.Errorf("render has %d lines, want ≥22", lines)
	}
}

func TestRenderFigure8(t *testing.T) {
	out := result(t, "fig8").Render()
	for _, needle := range []string{"Figure 8", "average speedup", "max", "Cost/100K"} {
		if !strings.Contains(out, needle) {
			t.Errorf("render missing %q", needle)
		}
	}
}

func TestRenderFigure13(t *testing.T) {
	out := result(t, "fig13").Render()
	for _, needle := range []string{"Figure 13", "p50", "median SnapStart share", "15m"} {
		if !strings.Contains(out, needle) {
			t.Errorf("render missing %q", needle)
		}
	}
}

func TestRenderTable4(t *testing.T) {
	out := result(t, "table4").Render()
	for _, needle := range []string{"Table 4", "Fallback Warm", "Fallback Cold", "Cold", "Warm", "spacy"} {
		if !strings.Contains(out, needle) {
			t.Errorf("render missing %q", needle)
		}
	}
}

// TestRenderAllNonEmpty renders every target and checks that each one's
// title — its first rendered line — contains the description -list shows.
// The fleet, query, and chaos targets read no debloat result, so they run
// from a small-population suite instead of their 10k/4k-function defaults.
func TestRenderAllNonEmpty(t *testing.T) {
	small := NewSuite()
	small.FleetFunctions = 200
	fleetPlane := map[string]bool{"fleet": true, "query": true, "chaos": true}
	for _, tg := range Targets {
		var r Renderer
		if fleetPlane[tg.Name] {
			var err error
			if r, err = tg.Run(small); err != nil {
				t.Fatalf("%s: %v", tg.Name, err)
			}
		} else {
			r = result(t, tg.Name)
		}
		out := r.Render()
		if len(out) < 80 {
			t.Errorf("%s: render suspiciously short", tg.Name)
		}
		if title, _, _ := strings.Cut(out, "\n"); !strings.Contains(title, tg.Desc) {
			t.Errorf("%s: title %q does not contain the description %q", tg.Name, title, tg.Desc)
		}
	}
}
