package experiments

import (
	"strings"
	"testing"

	"repro/internal/chaos"
)

// TestChaosExperiment runs a scaled-down incident day and asserts the two
// claims the experiment exists to demonstrate: the graceful-degradation
// mechanisms reduce unavailability, and the static fallback wrapper's
// brownout cost amplification exceeds the plain debloated arm's.
func TestChaosExperiment(t *testing.T) {
	s := NewSuite()
	s.FleetFunctions = 500
	res, err := s.Chaos()
	if err != nil {
		t.Fatal(err)
	}
	off, on := res.Off.Chaos, res.On.Chaos
	if off == nil || on == nil {
		t.Fatal("replay produced no scorecards")
	}
	if on.Total.Unavailability() >= off.Total.Unavailability() {
		t.Errorf("mitigations did not reduce unavailability: off %.4f on %.4f",
			off.Total.Unavailability(), on.Total.Unavailability())
	}
	amp := func(sc *chaos.Scorecard, arm string) float64 {
		for _, row := range sc.Arms {
			if row.Arm == arm {
				return row.BrownoutAmplification()
			}
		}
		t.Fatalf("no %s arm", arm)
		return 0
	}
	if fb, db := amp(on, chaos.ArmFallback), amp(on, chaos.ArmDebloated); fb <= db {
		t.Errorf("fallback brownout amplification %.2fx not above debloated %.2fx", fb, db)
	}

	out := res.Render()
	for _, want := range []string{
		"chaos incident day", "mitigations=none", "mitigations=all",
		"deltas (none -> all)", "unavailability", "mttr",
		"brownout $/served amplification",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}
