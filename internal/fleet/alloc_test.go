package fleet

import (
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestReplayAllocsPerInvocation locks in the allocation-free fold: with
// telemetry on, a replay allocates per shard and per function, never per
// invocation. The bound leaves room for the per-function state (fold
// context, arrival stream, chaos state, ledger rows) and the per-shard
// stores; one allocation per served invocation would blow it fourfold.
func TestReplayAllocsPerInvocation(t *testing.T) {
	const maxAllocsPerInv = 0.25
	pop := scaleRates(GeneratePopulation(PopConfig{
		Functions: 500, Period: 6 * time.Hour, Seed: 5, ArmMix: ChaosArmMix(),
	}, testArchetypes()), 10)

	plain := testConfig(1)
	plain.LabelSeries = false
	plain.Rules = nil
	withChaos := testConfig(1)
	withChaos.SLOs = DefaultChaosSLOs()
	withChaos.Chaos = &chaos.Config{Incidents: testIncidents(t), Mitigations: chaos.AllMitigations()}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", plain},
		{"chaos+labels+rules", withChaos},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var inv uint64
			allocs := testing.AllocsPerRun(2, func() {
				res, err := Replay(tc.cfg, pop)
				if err != nil {
					t.Fatal(err)
				}
				inv = res.Invocations
			})
			if inv < 20_000 {
				t.Fatalf("only %d invocations: too few to measure a per-invocation rate", inv)
			}
			perInv := allocs / float64(inv)
			t.Logf("%.0f allocs per replay, %d invocations: %.3f allocs/inv", allocs, inv, perInv)
			if perInv > maxAllocsPerInv {
				t.Errorf("%.3f allocs per invocation, want <= %.2f", perInv, maxAllocsPerInv)
			}
		})
	}
}
