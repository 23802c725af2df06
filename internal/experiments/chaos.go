package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/fleet"
)

// chaosFunctions is the chaos target's population: it replays the day
// twice, so it halves the fleet target's scale.
const chaosFunctions = 4000

// ChaosResult pairs the mechanisms-off and mechanisms-on replays of the
// chaos incident-day experiment: a four-arm population (original,
// debloated, debloated-with-fallback, and debloated-with-breaker) replayed
// twice through the canonical incident day (chaos.DefaultIncidentDay) —
// once with every graceful-degradation mechanism off, once with all of
// them on — so the report isolates what the mechanisms buy and what the
// static fallback wrapper costs under correlated faults.
type ChaosResult struct {
	// Functions is the population size.
	Functions int
	// Off ran with Mitigations none; On with all of hedge/shed/breaker/
	// budget. Both carry full fleet results including scorecards.
	Off, On *fleet.Result
}

// Chaos generates the four-arm population and replays the incident day
// twice. s.FleetFunctions sizes the population (zero: chaosFunctions);
// s.FleetWorkers only changes wall-clock time. Both replays share the
// population, schedule, seed, and pricing; the only difference is the
// mitigation toggles, so every delta in the report is attributable to the
// mechanisms.
func (s *Suite) Chaos() (*ChaosResult, error) {
	pc := fleet.DefaultPopConfig()
	pc.Functions = chaosFunctions
	if s.FleetFunctions > 0 {
		pc.Functions = s.FleetFunctions
	}
	pc.Seed = fleetSeed
	pc.Pricing = s.Platform.Pricing
	pc.ArmMix = fleet.ChaosArmMix()
	pop := fleet.GeneratePopulation(pc, nil)

	run := func(m chaos.Mitigations) (*fleet.Result, error) {
		return fleet.Replay(fleet.Config{
			Workers: s.FleetWorkers,
			Period:  pc.Period,
			SLOs:    fleet.DefaultChaosSLOs(),
			Seed:    fleetSeed,
			Pricing: pc.Pricing,
			Chaos: &chaos.Config{
				Seed:        fleetSeed,
				Incidents:   chaos.DefaultIncidentDay(),
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
	return &ChaosResult{Functions: pc.Functions, Off: off, On: on}, nil
}

// Render produces the incident-day report: the schedule, both replays'
// scorecards, and the headline deltas — unavailability and MTTR bought by
// the mechanisms, and the brownout cost amplification the static fallback
// wrapper exhibits against the breaker-protected arm.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos incident day — %d functions, 4 arms (original/debloated/fallback/breaker), seed %d\n",
		r.Functions, fleetSeed)
	fmt.Fprintf(&b, "schedule: %s\n\n", chaos.FormatIncidents(chaos.DefaultIncidentDay()))

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
