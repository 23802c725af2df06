package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/fleet"
)

// ChaosConfig parameterizes the chaos incident-day experiment: a four-arm
// population (original, debloated, debloated-with-fallback, and
// debloated-with-breaker) replayed twice through the same scripted
// incident schedule — once with every graceful-degradation mechanism off,
// once with all of them on — so the report isolates what the mechanisms
// buy and what the static fallback wrapper costs under correlated faults.
type ChaosConfig struct {
	// Functions is the population size; Seed keys the population, the
	// arrival streams, and every chaos draw.
	Functions int
	Seed      int64
	// Workers is the shard count (0: GOMAXPROCS; wall-clock only).
	Workers int
	// Incidents is the scripted schedule (default: the canonical incident
	// day, chaos.DefaultIncidentDay).
	Incidents []chaos.Incident
}

// DefaultChaosConfig replays 4000 functions (the experiment runs the day
// twice, so it halves the fleet target's default scale) through the
// canonical incident day.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{Functions: 4000, Seed: 1, Incidents: chaos.DefaultIncidentDay()}
}

// ChaosResult pairs the mechanisms-off and mechanisms-on replays.
type ChaosResult struct {
	Config ChaosConfig
	// Off ran with Mitigations none; On with all of hedge/shed/breaker/
	// budget. Both carry full fleet results including scorecards.
	Off, On *fleet.Result
}

// Chaos runs the chaos incident-day experiment under the suite's knobs
// (FleetFunctions, FleetWorkers; zero values take the defaults).
func (s *Suite) Chaos() (*ChaosResult, error) {
	cfg := DefaultChaosConfig()
	if s.FleetFunctions > 0 {
		cfg.Functions = s.FleetFunctions
	}
	cfg.Workers = s.FleetWorkers
	return s.ChaosWith(cfg)
}

// ChaosWith generates the four-arm population and replays the incident
// day twice. Both replays share the population, schedule, seed, and
// pricing; the only difference is the mitigation toggles, so every delta
// in the report is attributable to the mechanisms.
func (s *Suite) ChaosWith(cfg ChaosConfig) (*ChaosResult, error) {
	if len(cfg.Incidents) == 0 {
		cfg.Incidents = chaos.DefaultIncidentDay()
	}
	pc := fleet.DefaultPopConfig()
	pc.Functions = cfg.Functions
	pc.Seed = cfg.Seed
	pc.Pricing = s.Platform.Pricing
	pc.ArmMix = fleet.ChaosArmMix()
	pop := fleet.GeneratePopulation(pc, nil)

	run := func(m chaos.Mitigations) (*fleet.Result, error) {
		return fleet.Replay(fleet.Config{
			Workers: cfg.Workers,
			Period:  pc.Period,
			SLOs:    fleet.DefaultChaosSLOs(),
			Seed:    cfg.Seed,
			Pricing: pc.Pricing,
			Chaos: &chaos.Config{
				Seed:        cfg.Seed,
				Incidents:   cfg.Incidents,
				Mitigations: m,
			},
		}, pop)
	}
	off, err := run(chaos.Mitigations{})
	if err != nil {
		return nil, err
	}
	on, err := run(chaos.AllMitigations())
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Config: cfg, Off: off, On: on}, nil
}

// Render produces the incident-day report: the schedule, both replays'
// scorecards, and the headline deltas — unavailability and MTTR bought by
// the mechanisms, and the brownout cost amplification the static fallback
// wrapper exhibits against the breaker-protected arm.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos incident day — %d functions, 4 arms (original/debloated/fallback/breaker), seed %d\n",
		r.Config.Functions, r.Config.Seed)
	fmt.Fprintf(&b, "schedule: %s\n\n", chaos.FormatIncidents(r.Config.Incidents))

	b.WriteString("mitigations=none:\n")
	b.WriteString(indent(r.Off.Scorecard()))
	b.WriteString("mitigations=all:\n")
	b.WriteString(indent(r.On.Scorecard()))

	off, on := r.Off.Chaos, r.On.Chaos
	if off == nil || on == nil {
		return b.String()
	}
	b.WriteString("\ndeltas (none -> all):\n")
	uo, un := 100*off.Total.Unavailability(), 100*on.Total.Unavailability()
	fmt.Fprintf(&b, "  unavailability %.3f%% -> %.3f%% (%+.3fpp)\n", uo, un, un-uo)
	fmt.Fprintf(&b, "  alerts fired   %d -> %d\n", r.Off.AlertsFired(), r.On.AlertsFired())
	for i := range off.Incidents {
		if i >= len(on.Incidents) {
			break
		}
		io, in := off.Incidents[i], on.Incidents[i]
		fmt.Fprintf(&b, "  mttr %-40s %s -> %s\n",
			io.Incident.String(), fmtMTTR(io), fmtMTTR(in))
	}
	ampRow := func(res *fleet.Result, arm string) float64 {
		for _, row := range res.Chaos.Arms {
			if row.Arm == arm {
				return row.BrownoutAmplification()
			}
		}
		return 0
	}
	fmt.Fprintf(&b, "  brownout $/served amplification (mitigations=all): fallback %.2fx, breaker %.2fx, debloated %.2fx\n",
		ampRow(r.On, chaos.ArmFallback), ampRow(r.On, chaos.ArmBreaker), ampRow(r.On, chaos.ArmDebloated))
	return b.String()
}

func fmtMTTR(io chaos.IncidentOutcome) string {
	if io.Impacted == 0 {
		return "-"
	}
	return io.MTTR.String()
}

func indent(s string) string {
	if s == "" {
		return s
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}
