package experiments

import (
	"time"

	"repro/internal/fleet"
)

// The fleet and chaos targets' fixed parameters. The population size and
// the shard count come from the suite's FleetFunctions and FleetWorkers.
const (
	// fleetFunctions is the fleet target's paper-scale population: on
	// the order of 1-2 million invocations over one day.
	fleetFunctions = 10000
	// fleetSeed keys both the population draw and every per-function
	// arrival stream (and, for the chaos target, every chaos draw).
	fleetSeed = 1
	// fleetDashboardEvery is the dashboard frame interval over the
	// replayed day.
	fleetDashboardEvery = 4 * time.Hour
)

// Fleet runs the fleet-scale replay target: a synthetic Azure-trace-shaped
// population drawn from the corpus archetypes, replayed through the
// sharded virtual-time engine (internal/fleet). The archetypes
// parameterize each member's cold-init, handler, and memory observables —
// half the fleet deploys the original arm, half the λ-trim-debloated arm —
// so the report quantifies debloating at fleet scale without re-running
// the DD pipeline per member. s.FleetFunctions sizes the population (zero:
// fleetFunctions); s.FleetWorkers only changes wall-clock time. When the
// suite carries a tracer, the replay's bounded span tree and counters fold
// into it for the flamegraph and metrics exporters.
func (s *Suite) Fleet() (*fleet.Result, error) {
	pc := fleet.DefaultPopConfig()
	pc.Functions = fleetFunctions
	if s.FleetFunctions > 0 {
		pc.Functions = s.FleetFunctions
	}
	pc.Seed = fleetSeed
	pc.Pricing = s.Platform.Pricing
	pop := fleet.GeneratePopulation(pc, nil)
	res, err := fleet.Replay(fleet.Config{
		Workers:        s.FleetWorkers,
		Period:         pc.Period,
		SLOs:           fleet.DefaultSLOs(),
		DashboardEvery: fleetDashboardEvery,
		Seed:           fleetSeed,
		Pricing:        pc.Pricing,
	}, pop)
	if err != nil {
		return nil, err
	}
	res.EmitSpans(s.Platform.Tracer)
	return res, nil
}
