// Monitoring feed for the platform simulator. Every completed invocation
// attempt becomes one monitor.Sample stamped with its virtual completion
// time, so SLO burn rates and cost attribution evolve on the simulated
// timeline. With Config.Monitor nil (the default) this file contributes
// one pointer check per invocation and nothing else.
package faas

import (
	"time"

	"repro/internal/obs/monitor"
)

// SampleOf converts a completed invocation into a monitor sample. Merged
// retry records should not be re-sampled (each attempt already was), and
// throttled records carry no meaningful start kind, so Cold is gated on
// the failure class.
func SampleOf(inv *Invocation) monitor.Sample {
	cold := inv.Kind == ColdStart && inv.Class != FailureThrottle
	var billedInit time.Duration
	if cold {
		billedInit = inv.Init
	}
	billedExec := inv.Exec
	if inv.Class == FailureInitCrash {
		billedExec = 0
	}
	return monitor.Sample{
		Function:   inv.Function,
		Cold:       cold,
		Class:      inv.Class.String(),
		Init:       inv.Init,
		Exec:       inv.Exec,
		E2E:        inv.E2E,
		BilledInit: billedInit,
		BilledExec: billedExec,
		Billed:     inv.BilledDuration,
		MemoryMB:   inv.MemoryMB,
		CostUSD:    inv.CostUSD,
	}
}

// observeMonitor feeds one completed invocation to the monitor.
func (p *Platform) observeMonitor(start time.Duration, inv *Invocation) {
	m := p.cfg.Monitor
	if m == nil {
		return
	}
	m.Observe(start+inv.E2E, SampleOf(inv))
}
