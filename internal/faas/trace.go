// Tracing and metrics for the platform simulator. Every span and event
// rides the platform's simulated clock, so a fixed FaultSeed and workload
// reproduce byte-identical telemetry. With Config.Tracer nil (the default)
// this file contributes one pointer check per invocation and nothing else.
package faas

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// emitFault records one injected-fault event at the current platform time.
func (p *Platform) emitFault(kind, fn string) {
	tr := p.cfg.Tracer
	if tr == nil {
		return
	}
	tr.Emit("faas.fault-injected", p.now,
		obs.String("kind", kind), obs.String("fn", fn))
	tr.Metrics().Inc("faas.fault_injected."+kind, 1)
}

// recordInvocation reconstructs one completed platform invocation as a span
// subtree — queue/routing wait, the cold-path phases (instance init, image
// transfer, function init), and handler execution — from the final
// Invocation record, whose phase durations already reflect any OOM/timeout
// truncation. It also feeds the metrics registry and appends the
// invocation's canonical record to the event log.
func (p *Platform) recordInvocation(parent *obs.Span, start time.Duration, inv *Invocation) {
	p.observeMonitor(start, inv)
	tr := p.cfg.Tracer
	if tr == nil {
		return
	}
	reg := tr.Metrics()
	end := start + inv.E2E

	sp := tr.StartChild(parent, "invoke "+inv.Function, "faas", start)
	sp.Add(
		obs.String("kind", inv.Kind.String()),
		obs.String("class", inv.Class.String()),
		obs.Int("mem_mb", int64(inv.MemoryMB)),
		obs.DurationUS("billed_us", inv.BilledDuration),
		obs.Attr{Key: "cost_usd", Val: fmt.Sprintf("%.12f", inv.CostUSD)},
	)

	reg.Inc("faas.invocations", 1)
	if inv.Class != FailureNone {
		reg.Inc("faas.fault."+inv.Class.String(), 1)
		detail := ""
		if inv.Err != nil {
			detail = inv.Err.Error()
		}
		tr.Emit("faas.failure", end,
			obs.String("fn", inv.Function),
			obs.String("class", inv.Class.String()),
			obs.String("err", detail))
	}
	reg.Observe("faas.e2e.seconds", inv.E2E.Seconds())
	reg.Observe("faas.billed.usd", inv.CostUSD)

	cur := start
	phase := func(name string, d time.Duration) {
		tr.StartChild(sp, name, "faas", cur).Finish(cur + d)
		cur += d
	}
	phase("routing", RoutingOverhead)
	if inv.Class == FailureThrottle {
		// Rejected up front: no instance, no further phases.
		sp.Finish(end)
		tr.Emit("invocation", end, inv.logAttrs()...)
		return
	}

	importCrash := false
	if inv.Kind == ColdStart {
		reg.Inc("faas.cold_starts", 1)
		phase("instance-init", inv.InstanceInit)
		phase("image-transfer", inv.ImageTransfer)
		initDur := inv.Init
		if initDur == 0 && inv.Exec == 0 && inv.Class == FailureHandler {
			// The entry import itself raised: the record keeps no Init,
			// but E2E embeds the partial import time — recover it.
			initDur = inv.E2E - RoutingOverhead - inv.InstanceInit - inv.ImageTransfer
			importCrash = true
		}
		phase("init", initDur)
		reg.Observe("faas.init.seconds", initDur.Seconds())
	}
	if inv.Class != FailureInitCrash && !importCrash {
		phase("handler", inv.Exec)
		reg.Observe("faas.exec.seconds", inv.Exec.Seconds())
	}

	sp.Finish(end)
	tr.Emit("invocation", end, inv.logAttrs()...)
}
