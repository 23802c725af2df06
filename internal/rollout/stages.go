// Package rollout is a closed-loop deployment controller for debloated
// functions, layered on the faas simulator. It drives the full lifecycle
// the paper leaves to operators: deploy a debloated artifact as a new
// version, canary it behind a weighted alias, gate each stage on SLO burn
// rates over the canary's own traffic, trip a circuit breaker when the
// §5.4 fallback wrapper turns into a storm, and — when the storm is caused
// by over-trimming — collect the failing inputs as new oracle cases,
// re-debloat (§9), and canary the repaired artifact through the same
// pipeline. Everything runs on virtual time and seeded draws, so a replay
// is byte-identical across runs and worker counts.
package rollout

import (
	"fmt"
	"strings"
	"time"
)

// Stage is one canary step: route Weight of the traffic to the candidate
// and hold for Bake of quiet gate time before advancing.
type Stage struct {
	// Weight is the candidate's traffic fraction in (0, 1].
	Weight float64
	// Bake is how long the health gate must stay quiet at this weight.
	Bake time.Duration
}

// DefaultStages is the classic 1% → 10% → 50% → 100% ramp.
func DefaultStages() []Stage {
	return []Stage{
		{Weight: 0.01, Bake: 2 * time.Minute},
		{Weight: 0.10, Bake: 2 * time.Minute},
		{Weight: 0.50, Bake: 5 * time.Minute},
		{Weight: 1.00, Bake: 5 * time.Minute},
	}
}

// FormatStages renders stages as comma-separated percent:bake pairs,
// e.g. "1%:2m0s,10%:2m0s,50%:5m0s,100%:5m0s" for DefaultStages.
func FormatStages(stages []Stage) string {
	parts := make([]string, len(stages))
	for i, s := range stages {
		parts[i] = fmt.Sprintf("%g%%:%s", s.Weight*100, s.Bake)
	}
	return strings.Join(parts, ",")
}
