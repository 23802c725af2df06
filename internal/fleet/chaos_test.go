package fleet

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// testIncidents compresses the canonical incident day into the 6-hour
// test period: every kind fires, and every window ends well before the
// period so recovery is observable.
func testIncidents(t *testing.T) []chaos.Incident {
	t.Helper()
	ins, err := chaos.ParseIncidents(
		"churn@30m+15m,sev=0.8; throttle-storm@1h15m+20m,sev=0.6; " +
			"zone-outage@2h+15m,zone=1; brownout@3h+20m,sev=3,frac=0.6; " +
			"latency-storm@4h30m+15m,sev=4,frac=0.35")
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func chaosTestPopulation() []Function {
	return GeneratePopulation(PopConfig{
		Functions: 600, Period: 6 * time.Hour, Seed: 3, ArmMix: ChaosArmMix(),
	}, testArchetypes())
}

// TestChaosReplayByteIdenticalAcrossWorkers extends the engine's core
// contract to chaos replays: with a fixed seed and incident schedule, the
// report, exposition, alert log, and resilience scorecard are
// byte-identical at workers 1, 2, and 8.
func TestChaosReplayByteIdenticalAcrossWorkers(t *testing.T) {
	pop := chaosTestPopulation()
	ins := testIncidents(t)

	var base map[string]string
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig(workers)
		cfg.SLOs = DefaultChaosSLOs()
		cfg.Chaos = &chaos.Config{Incidents: ins, Mitigations: chaos.AllMitigations()}
		res, err := Replay(cfg, pop)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Chaos == nil {
			t.Fatalf("workers=%d: no scorecard", workers)
		}
		if res.Chaos.Total.Demand == 0 || res.Chaos.Total.Served == 0 {
			t.Fatalf("workers=%d: empty scorecard totals: %+v", workers, res.Chaos.Total)
		}
		got := artifacts(t, res)
		got["scorecard"] = res.Scorecard()
		if base == nil {
			base = got
			continue
		}
		for name, want := range base {
			if got[name] != want {
				t.Errorf("workers=%d: %s differs from workers=1\n--- workers=1\n%s\n--- workers=%d\n%s",
					workers, name, clip(want), workers, clip(got[name]))
			}
		}
	}
}

// TestChaosScorecardShape pins the semantics the scorecard aggregates:
// demand splits exactly into served + shed + unavailable + throttled
// drops, every scheduled incident appears in order, and the mitigations
// actually engage (hedges fire, drops occur during the outage).
func TestChaosScorecardShape(t *testing.T) {
	pop := chaosTestPopulation()
	ins := testIncidents(t)
	cfg := testConfig(4)
	cfg.SLOs = DefaultChaosSLOs()
	cfg.Chaos = &chaos.Config{Incidents: ins, Mitigations: chaos.AllMitigations()}
	res, err := Replay(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	sc := res.Chaos
	tot := sc.Total
	if got := tot.Served + tot.Shed + tot.Unavailable + tot.ThrottledDrops; got != tot.Demand {
		t.Errorf("demand %d != served %d + shed %d + unavailable %d + throttled %d",
			tot.Demand, tot.Served, tot.Shed, tot.Unavailable, tot.ThrottledDrops)
	}
	if tot.Unavailable == 0 {
		t.Error("zone outage produced no unavailability")
	}
	if tot.Hedges == 0 || tot.HedgeWins == 0 {
		t.Errorf("hedging never engaged: hedges=%d wins=%d", tot.Hedges, tot.HedgeWins)
	}
	if tot.HedgeWins > tot.Hedges {
		t.Errorf("hedge wins %d exceed hedges %d", tot.HedgeWins, tot.Hedges)
	}
	if len(sc.Incidents) != len(ins) {
		t.Fatalf("scorecard has %d incidents, schedule has %d", len(sc.Incidents), len(ins))
	}
	for i, io := range sc.Incidents {
		if io.Incident != ins[i] {
			t.Errorf("incident %d: scorecard %v != schedule %v", i, io.Incident, ins[i])
		}
	}
	// Arm accounting: four arms, function counts sum to the population,
	// demand sums to the total.
	if len(sc.Arms) != 4 {
		t.Fatalf("want 4 arm rows, got %d", len(sc.Arms))
	}
	var fns int
	var demand uint64
	for _, row := range sc.Arms {
		fns += row.Functions
		demand += row.Demand
	}
	if fns != len(pop) {
		t.Errorf("arm function counts sum to %d, population is %d", fns, len(pop))
	}
	if demand != tot.Demand {
		t.Errorf("arm demand sums to %d, total is %d", demand, tot.Demand)
	}
	// The render embeds the scorecard and the chaos series reached the
	// exposition.
	if !strings.Contains(res.Render(), "resilience scorecard") {
		t.Error("fleet report lacks the scorecard section")
	}
	if om := string(res.OpenMetrics()); !strings.Contains(om, "chaos_demand") {
		t.Error("exposition lacks chaos series")
	}
}

// TestChaosMitigationsReduceUnavailability replays the same population
// and schedule with mechanisms off and on: the mechanisms must strictly
// reduce unavailable drops, and the static-fallback arm must show a
// larger brownout cost amplification than the plain debloated arm (the
// double-billing effect the chaos experiment exists to expose).
func TestChaosMitigationsReduceUnavailability(t *testing.T) {
	pop := chaosTestPopulation()
	ins := testIncidents(t)
	run := func(m chaos.Mitigations) *chaos.Scorecard {
		cfg := testConfig(4)
		cfg.SLOs = DefaultChaosSLOs()
		cfg.Chaos = &chaos.Config{Incidents: ins, Mitigations: m}
		res, err := Replay(cfg, pop)
		if err != nil {
			t.Fatal(err)
		}
		return res.Chaos
	}
	off := run(chaos.Mitigations{})
	on := run(chaos.AllMitigations())
	if off.Total.Hedges != 0 || off.Total.Shed != 0 || off.Total.RetriesDenied != 0 {
		t.Errorf("mitigations=none still engaged mechanisms: %+v", off.Total)
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
		t.Fatalf("no %s arm row", arm)
		return 0
	}
	fb, db := amp(on, chaos.ArmFallback), amp(on, chaos.ArmDebloated)
	if fb <= db {
		t.Errorf("fallback brownout amplification %.2fx not above debloated %.2fx", fb, db)
	}
}

// TestArmMixMatchesDebloatedFraction: an ArmMix of {debloated: 0.5} is
// the same population as the default two-arm draw — the mix path must not
// perturb any per-member draw.
func TestArmMixMatchesDebloatedFraction(t *testing.T) {
	pc := PopConfig{Functions: 300, Period: 6 * time.Hour, Seed: 9}
	frac := GeneratePopulation(pc, testArchetypes())
	pc.ArmMix = []ArmShare{{Arm: "debloated", Frac: debloatedFraction}}
	mix := GeneratePopulation(pc, testArchetypes())
	if !reflect.DeepEqual(frac, mix) {
		t.Fatal("ArmMix{debloated:0.5} population differs from the default two-arm draw")
	}
}

// TestChaosOffLeavesReplayUntouched: a nil Chaos config must take the
// exact pre-chaos replay path — same artifacts as the seed contract test
// expects — and a non-nil config must be the only thing that changes
// outputs. (The byte-level chaos comparison is cmd/lambdatrim's
// TestDeterminism/chaos; here we assert the cheap invariant that
// Chaos=nil produces no scorecard.)
func TestChaosOffLeavesReplayUntouched(t *testing.T) {
	pop := chaosTestPopulation()
	res, err := Replay(testConfig(2), pop)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos != nil {
		t.Fatal("Chaos=nil produced a scorecard")
	}
	if res.Scorecard() != "" {
		t.Fatal("Scorecard() non-empty without chaos")
	}
	if strings.Contains(res.Render(), "resilience scorecard") {
		t.Fatal("report mentions scorecard without chaos")
	}
}
