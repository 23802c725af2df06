package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseIncidentsRoundTrip: FormatIncidents(ParseIncidents(s)) is a
// fixpoint, and the canonical form re-parses to the same schedule — the
// same contract ParseSLOs and mql grammars keep.
func TestParseIncidentsRoundTrip(t *testing.T) {
	specs := []string{
		"zone-outage@9h+25m,zone=1",
		"throttle-storm@5h+45m,sev=0.6",
		"latency-storm@18h+35m,sev=4,frac=0.35",
		"brownout@13h+40m,zone=2,sev=3,frac=0.6",
		"churn@2h+30m,sev=0.8",
		"zone-outage@1h+10m,zone=0; churn@2h+30m; throttle-storm@30m+5m",
	}
	for _, spec := range specs {
		ins, err := ParseIncidents(spec)
		if err != nil {
			t.Fatalf("ParseIncidents(%q): %v", spec, err)
		}
		canon := FormatIncidents(ins)
		again, err := ParseIncidents(canon)
		if err != nil {
			t.Fatalf("reparse %q: %v", canon, err)
		}
		if !reflect.DeepEqual(ins, again) {
			t.Errorf("%q: reparse of %q differs:\n%+v\nvs\n%+v", spec, canon, ins, again)
		}
		if got := FormatIncidents(again); got != canon {
			t.Errorf("%q: canonical form not a fixpoint: %q vs %q", spec, got, canon)
		}
	}
}

func TestParseIncidentsSortsByStart(t *testing.T) {
	ins, err := ParseIncidents("churn@5h+30m; zone-outage@1h+10m,zone=0")
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].Kind != ZoneOutage || ins[1].Kind != Churn {
		t.Errorf("schedule not start-ordered: %v", FormatIncidents(ins))
	}
}

func TestParseIncidentsErrors(t *testing.T) {
	bad := []string{
		"meteor@1h+10m",                  // unknown kind
		"zone-outage@1h",                 // missing duration
		"zone-outage@-1h+10m",            // negative start
		"zone-outage@1h+0s",              // non-positive duration
		"zone-outage@1h+10m,sev=1.5",     // probability out of range
		"brownout@1h+10m,sev=0.5",        // stretch below 1
		"zone-outage@1h+10m,frac=0.5",    // frac on a non-frac kind
		"latency-storm@1h+10m,frac=1.5",  // frac out of range
		"zone-outage@1h+10m,zone=x",      // bad zone
		"zone-outage@1h+10m,wibble=1",    // unknown field
		"latency-storm@1h+10m,sev=bogus", // bad severity
	}
	for _, spec := range bad {
		if _, err := ParseIncidents(spec); err == nil {
			t.Errorf("ParseIncidents(%q) = nil error, want failure", spec)
		}
	}
}

func TestDefaultIncidentDayValidates(t *testing.T) {
	if _, err := NewEngine(Config{Incidents: DefaultIncidentDay()}); err != nil {
		t.Fatalf("canonical incident day rejected: %v", err)
	}
}

func TestNewEngineRejectsOutOfRangeZone(t *testing.T) {
	ins, err := ParseIncidents("zone-outage@1h+10m,zone=7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{Incidents: ins}); err == nil {
		t.Fatal("zone 7 accepted against a 4-zone topology")
	}
}

func TestMitigationsRoundTrip(t *testing.T) {
	cases := []string{"all", "none", "hedge", "shed,budget", "hedge,shed,breaker"}
	for _, spec := range cases {
		m, err := ParseMitigations(spec)
		if err != nil {
			t.Fatalf("ParseMitigations(%q): %v", spec, err)
		}
		again, err := ParseMitigations(m.String())
		if err != nil || again != m {
			t.Errorf("%q: round-trip %v -> %q -> %v (err %v)", spec, m, m.String(), again, err)
		}
	}
	if _, err := ParseMitigations("hedge,warp"); err == nil {
		t.Error("unknown mitigation accepted")
	}
	if m, _ := ParseMitigations(""); m != AllMitigations() {
		t.Error("empty spec should mean all mitigations")
	}
}

func TestKindStringOutOfRange(t *testing.T) {
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("Kind(99) = %q", got)
	}
}

// TestTopologyPlacementStable: fault-domain placement is a pure function
// of the key, host indices stay inside the zone's range, and zones are
// reasonably balanced over many keys.
func TestTopologyPlacementStable(t *testing.T) {
	topo := DefaultTopology()
	counts := make([]int, topo.Zones)
	for k := uint64(0); k < 4000; k++ {
		z := topo.ZoneOf(k)
		h := topo.HostOf(k)
		if z != topo.ZoneOf(k) || h != topo.HostOf(k) {
			t.Fatal("placement not deterministic")
		}
		if h/topo.HostsPerZone != z {
			t.Fatalf("host %d outside zone %d", h, z)
		}
		counts[z]++
	}
	for z, n := range counts {
		if n < 700 || n > 1300 {
			t.Errorf("zone %d holds %d of 4000 keys (expected near-uniform)", z, n)
		}
	}
}

// TestEngineDrawsScheduleIndependent: a function's chaos decisions depend
// only on its own arrival sequence — replaying two functions interleaved
// or back-to-back yields identical outcomes.
func TestEngineDrawsScheduleIndependent(t *testing.T) {
	eng, err := NewEngine(Config{Seed: 11, Incidents: DefaultIncidentDay()})
	if err != nil {
		t.Fatal(err)
	}
	view := func(id int) FnView {
		return FnView{ID: id, Arm: ArmFallback, ColdInit: time.Second,
			Exec: 100 * time.Millisecond, MemoryMB: 256}
	}
	replay := func(st *FnState) []Outcome {
		var out []Outcome
		for at := time.Duration(0); at < 24*time.Hour; at += 7 * time.Minute {
			if st.Admit(at) {
				st.Serve(at, at%(20*time.Minute) == 0)
				out = append(out, *st.Outcome())
			}
		}
		return out
	}
	// Sequential: function 1 fully, then function 2.
	a1 := replay(eng.Function(view(1)))
	a2 := replay(eng.Function(view(2)))
	// "Interleaved": fresh states, opposite construction order.
	b2 := replay(eng.Function(view(2)))
	b1 := replay(eng.Function(view(1)))
	if !reflect.DeepEqual(a1, b1) || !reflect.DeepEqual(a2, b2) {
		t.Fatal("outcomes depend on replay schedule")
	}
	if reflect.DeepEqual(a1, a2) {
		t.Fatal("distinct functions drew identical outcomes (keys not independent)")
	}
}

func TestScorecardRenderMentionsArms(t *testing.T) {
	sc := &Scorecard{Mitigations: AllMitigations(), Topology: DefaultTopology()}
	sc.Arms = append(sc.Arms, ArmRow{Arm: "fallback", Functions: 3,
		ArmStats: ArmStats{Demand: 10, Served: 9, Unavailable: 1, CostUSD: 0.5}})
	sc.Total = sc.Arms[0].ArmStats
	out := sc.Render()
	for _, want := range []string{"mitigations=all", "fallback", "availability=90.0000%"} {
		if !strings.Contains(out, want) {
			t.Errorf("scorecard missing %q:\n%s", want, out)
		}
	}
}

// FuzzParseIncidents: any accepted spec must canonicalize to a fixpoint
// that re-parses to the same schedule.
func FuzzParseIncidents(f *testing.F) {
	f.Add("zone-outage@9h+25m,zone=1")
	f.Add("latency-storm@18h+35m,sev=4,frac=0.35; churn@2h+30m")
	f.Add("brownout@0s+1ns,sev=1")
	f.Add("; ;;")
	f.Fuzz(func(t *testing.T, spec string) {
		ins, err := ParseIncidents(spec)
		if err != nil {
			return
		}
		canon := FormatIncidents(ins)
		again, err := ParseIncidents(canon)
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", canon, err)
		}
		if FormatIncidents(again) != canon {
			t.Fatalf("canonical form not a fixpoint: %q -> %q", canon, FormatIncidents(again))
		}
	})
}
