package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/appspec"
	"repro/internal/faas"
	"repro/internal/fleet"
	"repro/internal/obs/monitor"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// Monitor — operational observability over a fleet replay (extension)
// ---------------------------------------------------------------------------
//
// The cost tables answer "what does debloating save"; this experiment
// answers "what does an operator watching the service see". It replays the
// same seeded bursty workload against the original and the debloated
// deployment of one app, each under a monitor with identical SLOs — a p95
// latency objective, a per-invocation cost objective, and an error-rate
// objective, with thresholds derived from the two deployments' probed cold
// starts so the original burns its budget where the debloated one does
// not. Alerts fire at deterministic virtual times via multi-window
// burn-rate evaluation, and the cost-attribution ledger decomposes each
// deployment's Eq.-1 bill into init / handler / idle dollars — the
// per-phase view that explains *why* the original pages and the debloated
// deployment stays quiet.
//
// A second section replays a synthetic Azure-shaped fleet through the
// keep-alive pool simulation, feeding every served arrival to one fleet
// monitor: cold-fraction burn alerts plus a top-spender table, showing the
// subsystem at trace scale rather than app scale.

// MonitorConfig parameterizes the monitored replay.
type MonitorConfig struct {
	// App is the corpus application to study.
	App string
	// Seed drives trace generation for both the app replay and the fleet
	// section; a fixed seed reproduces every byte of output.
	Seed int64
	// SLOs, when non-empty, replaces the probe-derived objective set
	// entirely (e.g. parsed from a -slo flag). Both deployments still
	// share the same set.
	SLOs []monitor.SLO
}

// DefaultMonitorConfig studies lightgbm at seed 7.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{App: "lightgbm", Seed: 7}
}

// The monitored replay's fixed parameters: ~150 requests of the hottest
// seeded trace function (a few minutes of virtual time, so seconds-scale
// windows) and a two-hour sixty-function fleet.
const (
	// monitorRequests caps the replayed arrivals.
	monitorRequests = 150
	// monitorResolution is the monitor's TSDB window (and SLO tick) size.
	monitorResolution = 5 * time.Second
	// monitorDashboardEvery renders a dashboard frame at this virtual
	// interval.
	monitorDashboardEvery = 30 * time.Second
	// latencyBudget and costBudget are the allowed bad fractions of the
	// latency and per-invocation cost objectives; errorBudget the allowed
	// failure fraction.
	latencyBudget, costBudget, errorBudget = 0.05, 0.05, 0.02

	// monitorFleetFunctions and monitorFleetPeriod shape the fleet trace;
	// monitorFleetColdInit is the modeled init latency of a fleet cold
	// start and monitorFleetColdBudget the fleet cold-fraction SLO budget.
	// The pool keep-alive and the window size are the fleet engine's.
	monitorFleetFunctions  = 60
	monitorFleetPeriod     = 2 * time.Hour
	monitorFleetColdInit   = 400 * time.Millisecond
	monitorFleetColdBudget = 0.30
)

// MonitorVariantRow is one deployment's monitored outcome.
type MonitorVariantRow struct {
	Deployment string
	MemoryMB   int
	Requests   int
	// Phase is the ledger's cost decomposition for the deployment.
	Phase monitor.Phase
	// FireCounts summarizes each objective's alerting outcome.
	FireCounts []monitor.SLOFireCount
	// AlertLog, Dashboard, and OpenMetrics are the monitor's deterministic
	// text artifacts.
	AlertLog    string
	Dashboard   string
	OpenMetrics []byte
}

// AlertsFired sums fire transitions across objectives.
func (r MonitorVariantRow) AlertsFired() int {
	n := 0
	for _, fc := range r.FireCounts {
		n += fc.Fired
	}
	return n
}

// FleetFunctionRow is one fleet function's ledger summary.
type FleetFunctionRow struct {
	Function string
	Phase    monitor.Phase
}

// FleetSummary is the fleet replay's outcome.
type FleetSummary struct {
	Functions   int
	Invocations uint64
	ColdStarts  uint64
	CostUSD     float64
	AlertsFired int
	AlertLog    string
	// TopSpenders are the costliest functions, largest bill first.
	TopSpenders []FleetFunctionRow
}

// MonitorResult aggregates the monitored comparison.
type MonitorResult struct {
	App    string
	Seed   int64
	Config MonitorConfig
	// LatencySLO and CostSLO are the probe-derived thresholds applied
	// identically to both deployments (informational when Config.SLOs
	// overrode the derived set).
	LatencySLO time.Duration
	CostSLO    float64
	// SLOs is the objective set actually evaluated.
	SLOs []monitor.SLO
	Rows []MonitorVariantRow
	// ModuleCosts attributes the original deployment's init-phase dollars
	// to its profiled modules (largest share first).
	ModuleCosts []monitor.ModuleCost
	Fleet       FleetSummary
}

// Monitor runs the monitored replay with the default configuration,
// reusing the suite's cached debloating result.
func (s *Suite) Monitor() (*MonitorResult, error) {
	cfg := DefaultMonitorConfig()
	res, err := s.Debloat(cfg.App)
	if err != nil {
		return nil, err
	}
	return MonitorCompare(res.Original, res.App, res.Profile, s.Platform, cfg)
}

// MonitorCompare replays the seeded workload against the original and
// debloated deployments of one app, each watched by a monitor with the
// same probe-derived SLO set, then replays the synthetic fleet through the
// keep-alive pool under a fleet monitor.
func MonitorCompare(orig, trim *appspec.App, profile *profiler.Profile, platform faas.Config, cfg MonitorConfig) (*MonitorResult, error) {
	origProbe, err := faas.MeasureColdStart(orig, platform)
	if err != nil {
		return nil, fmt.Errorf("monitor: probing original: %w", err)
	}
	trimProbe, err := faas.MeasureColdStart(trim, platform)
	if err != nil {
		return nil, fmt.Errorf("monitor: probing debloated: %w", err)
	}

	// Thresholds sit at the geometric midpoint of the two probed cold
	// starts: the original's cold invocations violate them, the debloated
	// one's never do — under one SLO config shared by both deployments.
	latSLO := time.Duration(math.Sqrt(float64(origProbe.E2E) * float64(trimProbe.E2E)))
	costSLO := math.Sqrt(origProbe.CostUSD * trimProbe.CostUSD)
	slos := cfg.SLOs
	if len(slos) == 0 {
		slos = []monitor.SLO{
			{Name: "latency-p95", Kind: monitor.KindLatency, Threshold: latSLO, Budget: latencyBudget},
			{Name: "cost-per-invocation", Kind: monitor.KindCostPerInvocation, BudgetUSD: costSLO, Budget: costBudget},
			{Name: "error-rate", Kind: monitor.KindErrorRate, Budget: errorBudget},
		}
	}

	groups := burstGroups(cfg.Seed, monitorRequests)
	event := map[string]any{}
	if len(orig.Oracle) > 0 {
		event = orig.Oracle[0].Event
	}

	out := &MonitorResult{App: orig.Name, Seed: cfg.Seed, Config: cfg,
		LatencySLO: latSLO, CostSLO: costSLO, SLOs: slos}
	variants := []struct {
		label string
		app   *appspec.App
		peak  float64
	}{
		{"original", orig, origProbe.PeakMB},
		{"debloated", trim, trimProbe.PeakMB},
	}
	for _, v := range variants {
		mon := monitor.New(monitor.Config{
			Resolution:     monitorResolution,
			SLOs:           slos,
			DashboardEvery: monitorDashboardEvery,
		})
		mcfg := platform
		mcfg.Monitor = mon
		p := faas.New(mcfg)
		app := provision(v.app, v.peak)
		p.Deploy(app)

		row := MonitorVariantRow{Deployment: v.label, MemoryMB: app.MemoryMB}
		for _, g := range groups {
			if gap := g.start - p.Now(); gap > 0 {
				p.Advance(gap)
			}
			events := make([]map[string]any, g.size)
			for i := range events {
				events[i] = event
			}
			invs, err := p.InvokeGroupWithRetry(app.Name, events, faas.DefaultRetryPolicy())
			if err != nil {
				return nil, fmt.Errorf("monitor %s: %w", v.label, err)
			}
			row.Requests += len(invs)
		}
		mon.Finish()

		row.Phase = mon.Ledger().Function(app.Name)
		row.FireCounts = mon.FireCounts()
		row.AlertLog = mon.AlertLog()
		row.Dashboard = mon.Dashboard()
		row.OpenMetrics = mon.OpenMetrics()
		out.Rows = append(out.Rows, row)

		if v.label == "original" && profile != nil {
			weights := make([]monitor.ModuleWeight, 0, len(profile.Modules))
			for _, m := range profile.Modules {
				weights = append(weights, monitor.ModuleWeight{
					Name:   m.Name,
					Weight: m.ImportTime.Seconds(),
				})
			}
			out.ModuleCosts = mon.Ledger().AttributeInit(app.Name, weights)
		}
	}

	out.Fleet, err = replayFleet(platform.Pricing, cfg.Seed, 1)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// replayFleet generates the Azure-shaped fleet trace and replays it
// through the sharded fleet engine (internal/fleet) with the same pool
// policy, billing, and cold-fraction objective the hand-rolled loop used
// to apply. The engine's block-ordered merge plus post-hoc SLO sweep
// reproduce the globally-sorted live-monitor feed byte-for-byte (see
// monitor/eval.go), so the rendered section is pinned by a golden test.
// workers > 1 shards the replay across workers without changing a byte of
// the output.
func replayFleet(pricing faas.Pricing, seed int64, workers int) (FleetSummary, error) {
	tr := trace.Generate(trace.GenConfig{
		Functions: monitorFleetFunctions, Period: monitorFleetPeriod, Seed: seed,
	})
	fns := make([]fleet.Function, 0, len(tr.Functions))
	for i := range tr.Functions {
		f := &tr.Functions[i]
		fns = append(fns, fleet.Function{
			ID:       f.ID,
			Name:     fmt.Sprintf("fleet-%03d", f.ID),
			ColdInit: monitorFleetColdInit,
			Exec:     time.Duration(f.DurationMS * float64(time.Millisecond)),
			MemoryMB: pricing.ConfigureMemory(f.MemoryMB),
			Arrivals: f.SortedArrivals(),
		})
	}
	res, err := fleet.Replay(fleet.Config{
		Workers: workers,
		Period:  monitorFleetPeriod,
		Pricing: pricing,
		Seed:    seed,
		SLOs: []monitor.SLO{
			{Name: "fleet-cold-fraction", Kind: monitor.KindColdFraction, Budget: monitorFleetColdBudget},
		},
	}, fns)
	if err != nil {
		return FleetSummary{}, fmt.Errorf("fleet replay: %w", err)
	}

	sum := FleetSummary{
		Functions:   res.Functions,
		Invocations: res.Invocations,
		ColdStarts:  res.ColdStarts,
		CostUSD:     res.CostUSD(),
		AlertsFired: res.AlertsFired(),
		AlertLog:    res.AlertLog(),
	}
	for _, sp := range res.TopSpenders(5) {
		sum.TopSpenders = append(sum.TopSpenders, FleetFunctionRow{Function: sp.Function, Phase: sp.Phase})
	}
	return sum, nil
}

// describeSLO renders one objective's parameters for the result header.
func describeSLO(s monitor.SLO) string {
	budget := s.Budget
	if budget <= 0 {
		budget = 0.05
	}
	switch s.Kind {
	case monitor.KindLatency:
		return fmt.Sprintf("E2E ≤ %s for %.0f%% of requests", s.Threshold.Round(time.Millisecond), 100*(1-budget))
	case monitor.KindErrorRate:
		return fmt.Sprintf("failures ≤ %.0f%% of requests", 100*budget)
	case monitor.KindColdFraction:
		return fmt.Sprintf("cold starts ≤ %.0f%% of requests", 100*budget)
	case monitor.KindCostPerInvocation:
		return fmt.Sprintf("bill ≤ $%.9f for %.0f%% of requests", s.BudgetUSD, 100*(1-budget))
	case monitor.KindCostRate:
		return fmt.Sprintf("spend ≤ $%.6f/hour", s.BudgetUSD)
	}
	return s.Kind.String()
}

// Render prints the monitored comparison: the shared SLO set, each
// deployment's alerts and phase-attributed bill, the original's per-module
// init attribution, and the fleet section.
func (r *MonitorResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Monitor — %s replay under SLO burn-rate alerting (seed %d)\n", r.App, r.Seed)
	b.WriteString("SLOs (identical for both deployments):\n")
	for _, s := range r.SLOs {
		fmt.Fprintf(&b, "  %-22s %s\n", s.Name, describeSLO(s))
	}
	fmt.Fprintf(&b, "windows: %s resolution, burn≥1 on both 5× and 30× trailing windows\n\n", monitorResolution)

	fmt.Fprintf(&b, "%-10s %6s %6s %6s %7s %12s %12s %12s %12s %6s %7s\n",
		"Deployment", "MemMB", "Reqs", "Cold", "Err", "Init$", "Handler$", "Idle$", "Total$", "Init%", "Alerts")
	for _, row := range r.Rows {
		ph := row.Phase
		total := ph.CostUSD()
		initShare := 0.0
		if total > 0 {
			initShare = 100 * (ph.InitUSD + ph.RestoreUSD) / total
		}
		fmt.Fprintf(&b, "%-10s %6d %6d %6d %7d %12.9f %12.9f %12.9f %12.9f %5.1f%% %7d\n",
			row.Deployment, row.MemoryMB, row.Requests, ph.ColdStarts, ph.Errors,
			ph.InitUSD, ph.ExecUSD, ph.IdleUSD, total, initShare, row.AlertsFired())
	}
	if len(r.Rows) == 2 {
		o, t := r.Rows[0].Phase, r.Rows[1].Phase
		fmt.Fprintf(&b, "%-10s %6s %6s %6s %7s %12.9f %12.9f %12.9f %12.9f\n",
			"delta", "", "", "", "", o.InitUSD-t.InitUSD, o.ExecUSD-t.ExecUSD,
			o.IdleUSD-t.IdleUSD, o.CostUSD()-t.CostUSD())
	}
	b.WriteByte('\n')

	for _, row := range r.Rows {
		fmt.Fprintf(&b, "alerts (%s):\n", row.Deployment)
		if row.AlertLog == "" {
			b.WriteString("  (none)\n")
		} else {
			for _, line := range strings.Split(strings.TrimRight(row.AlertLog, "\n"), "\n") {
				b.WriteString("  " + line + "\n")
			}
		}
		fmt.Fprintf(&b, "dashboard (%s):\n", row.Deployment)
		for _, line := range strings.Split(strings.TrimRight(row.Dashboard, "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	b.WriteByte('\n')

	if len(r.ModuleCosts) > 0 {
		b.WriteString("original init-phase dollars by module (profiler-weighted):\n")
		limit := 8
		if len(r.ModuleCosts) < limit {
			limit = len(r.ModuleCosts)
		}
		for _, mc := range r.ModuleCosts[:limit] {
			fmt.Fprintf(&b, "  %-28s $%.12f (%5.1f%%)\n", mc.Name, mc.USD, 100*mc.Share)
		}
		b.WriteByte('\n')
	}

	renderFleetSection(&b, r.Fleet)
	b.WriteString("the original pages on latency and cost where the debloated deployment stays inside budget; the delta row is init-phase dollars debloating removed\n")
	return b.String()
}

// renderFleetSection renders the fleet replay's lines of the monitor
// report. Split out so the golden test can pin the section (and only the
// section) against the pre-engine output byte-for-byte.
func renderFleetSection(b *strings.Builder, f FleetSummary) {
	fmt.Fprintf(b, "fleet replay: %d functions over %s, keep-alive %s\n",
		f.Functions, monitorFleetPeriod, fleet.KeepAlive)
	coldPct := 0.0
	if f.Invocations > 0 {
		coldPct = 100 * float64(f.ColdStarts) / float64(f.Invocations)
	}
	fmt.Fprintf(b, "  invocations=%d cold=%d (%.1f%%) cost=$%.6f alerts=%d\n",
		f.Invocations, f.ColdStarts, coldPct, f.CostUSD, f.AlertsFired)
	if f.AlertLog != "" {
		for _, line := range strings.Split(strings.TrimRight(f.AlertLog, "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	b.WriteString("  top spenders:\n")
	for _, row := range f.TopSpenders {
		ph := row.Phase
		fmt.Fprintf(b, "    %-12s invoc=%-6d cold=%-5d init$=%.6f handler$=%.6f total$=%.6f\n",
			row.Function, ph.Invocations, ph.ColdStarts, ph.InitUSD, ph.ExecUSD, ph.CostUSD())
	}
}
