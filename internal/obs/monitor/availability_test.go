package monitor

import "testing"

// TestAvailabilityBadPredicate pins the availability objective's bad set:
// every platform failure class counts, shed does not — sheds are the
// client deliberately dropping load to protect the rest, and counting
// them would penalize the mitigation that preserves availability.
func TestAvailabilityBadPredicate(t *testing.T) {
	slo := SLO{Name: "avail", Kind: KindAvailability, Budget: 0.02}
	cases := []struct {
		class string
		want  bool
	}{
		{"ok", false},
		{"shed", false},
		{"unavailable", true},
		{"throttle", true},
		{"timeout", true},
		{"handler-error", true},
	}
	for _, tc := range cases {
		if got := slo.bad(&Sample{Class: tc.class}); got != tc.want {
			t.Errorf("availability bad(%q) = %v, want %v", tc.class, got, tc.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if got := KindAvailability.String(); got != "availability" {
		t.Errorf("KindAvailability = %q", got)
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("Kind(99) = %q", got)
	}
}

func TestParseSLOsAvailability(t *testing.T) {
	slos, err := ParseSLOs("avail=2%")
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 1 || slos[0].Kind != KindAvailability || slos[0].Budget != 0.02 {
		t.Fatalf("ParseSLOs(avail=2%%) = %+v", slos)
	}
	if _, err := ParseSLOs("avail=bogus"); err == nil {
		t.Error("bad availability budget accepted")
	}
}
