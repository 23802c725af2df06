package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs/query"
)

// benchGolden is cmd/bench's committed digest file. The benchmark is its
// own module, so the root test pass never runs its checks; this test
// replays the same two fleet configurations and compares the same digests.
const benchGolden = "../../cmd/bench/testdata/golden.json"

// benchInvPerFunction is cmd/bench's per-function day volume: rates are
// scaled so the population expects 140 invocations per function.
const benchInvPerFunction = 140

// TestBenchFleetDigests pins the full-scale fleet replay to the committed
// seed-1 digests of cmd/bench's fleet-day and fleet-chaos workloads: the
// report, the OpenMetrics exposition and the scorecard. The worker-count
// tests only compare a replay with itself, so a change to arrivals,
// hedging or any fold that every worker count makes alike passes them;
// this one does not. Skipped under -short.
func TestBenchFleetDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale replay skipped under -short")
	}
	raw, err := os.ReadFile(benchGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Fleet map[string]struct {
			Report      string `json:"report"`
			OpenMetrics string `json:"openmetrics"`
			Scorecard   string `json:"scorecard"`
		} `json:"fleet_seed1"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", benchGolden, err)
	}
	rules, err := query.ParseRules(`fleet:cost_usd:sum5m = sum(cost.usd[5m]); fleet:req:rate5m = rate(req.total[5m])`)
	if err != nil {
		t.Fatal(err)
	}
	archs := Archetypes()
	for _, name := range []string{"fleet-day", "fleet-chaos"} {
		t.Run(name, func(t *testing.T) {
			want, ok := golden.Fleet[name]
			if !ok {
				t.Fatalf("%s has no digests for %s", benchGolden, name)
			}
			pc := DefaultPopConfig()
			cfg := Config{
				Period:         pc.Period,
				SLOs:           DefaultSLOs(),
				DashboardEvery: 4 * time.Hour,
				Seed:           pc.Seed,
				Pricing:        pc.Pricing,
			}
			if name == "fleet-chaos" {
				pc.ArmMix = ChaosArmMix()
				cfg.Chaos = &chaos.Config{Seed: pc.Seed, Incidents: chaos.DefaultIncidentDay(), Mitigations: chaos.AllMitigations()}
				cfg.SLOs = DefaultChaosSLOs()
				cfg.LabelSeries = true
				cfg.Rules = rules
			}
			pop := GeneratePopulation(pc, archs)
			sum := 0.0
			for i := range pop {
				sum += pop[i].Rate
			}
			scale := float64(benchInvPerFunction*len(pop)) / sum
			for i := range pop {
				pop[i].Rate *= scale
			}
			res, err := Replay(cfg, pop)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []struct {
				artifact string
				got      []byte
				want     string
			}{
				{"report", []byte(res.Render()), want.Report},
				{"openmetrics", res.OpenMetrics(), want.OpenMetrics},
				{"scorecard", []byte(res.Scorecard()), want.Scorecard},
			} {
				sum := sha256.Sum256(a.got)
				if got := hex.EncodeToString(sum[:]); got != a.want {
					t.Errorf("%s digest %s, want %s", a.artifact, got, a.want)
				}
			}
		})
	}
}
