package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/appspec"
	"repro/internal/debloat"
	"repro/internal/faas"
	"repro/internal/obs/monitor"
	"repro/internal/rollout"
)

// ---------------------------------------------------------------------------
// Rollout — closed-loop deployment of debloated functions (extension)
// ---------------------------------------------------------------------------
//
// The paper ships a debloated artifact and a fallback wrapper (§5.4) and
// leaves the operational loop — how the artifact reaches production, what
// happens when the wrapper starts firing, who re-runs λ-trim (§9) — to the
// operator. This experiment closes that loop and prices it. A fleet of
// corpus apps replays a seeded bursty trace under three deployment
// regimes:
//
//	fallback-only   the paper's static wrapper: every over-trim miss runs
//	                the debloated attempt to its AttributeError, then the
//	                original on top — two Eq.-1 bills per request, forever
//	rollout         the closed-loop controller: staged canary behind a
//	                weighted alias, SLO-gated advancement, a fallback-storm
//	                circuit breaker that routes storms straight to the
//	                original, and self-healing re-debloat from the storm's
//	                failing inputs
//	oracle-clean    the counterfactual: artifacts debloated with the
//	                advanced-mode input in the oracle from day one
//
// Mid-trace, storm members' traffic shifts to the advanced mode whose
// attribute λ-trim removed. The fallback-only arm double-bills every such
// request to the end of the trace; the controller opens the breaker within
// a window, re-debloats, canaries the repaired artifact back to 100%, and
// its steady-state $/invocation converges to the oracle-clean level.

// RolloutConfig parameterizes the closed-loop replay.
type RolloutConfig struct {
	// StormApps get advanced-mode traffic after stormFrac of the trace;
	// their debloated artifacts carry the latent over-trim.
	StormApps []string
	// CleanApps receive only oracle traffic throughout.
	CleanApps []string
	// Seed drives the trace generator and the alias routing draws.
	Seed int64
}

// DefaultRolloutConfig storms lightgbm and dna-visualization beside a
// clean markdown at seed 7.
func DefaultRolloutConfig() RolloutConfig {
	return RolloutConfig{
		StormApps: []string{"lightgbm", "dna-visualization"},
		CleanApps: []string{"markdown"},
		Seed:      7,
	}
}

// The closed-loop replay's fixed parameters. The controller's own policy
// (canary ramp, gate, breaker) is fixed in the rollout package, sized to
// this trace.
const (
	// rolloutRequests caps replayed arrivals.
	rolloutRequests = 360
	// stormFrac and steadyFrac position the storm onset and the
	// steady-state costing window as fractions of the trace span.
	stormFrac, steadyFrac = 0.35, 0.80
)

// RolloutArmRow is one deployment regime's outcome.
type RolloutArmRow struct {
	Arm       string
	Requests  int
	Fallbacks int
	Opens     int
	Heals     int
	CostUSD   float64
	// Steady* cover requests completing inside the steady-state window.
	SteadyReqs    int
	SteadyCold    int
	SteadyCostUSD float64
}

// CostPerInv is the arm's overall $/invocation.
func (r RolloutArmRow) CostPerInv() float64 {
	if r.Requests == 0 {
		return 0
	}
	return r.CostUSD / float64(r.Requests)
}

// SteadyCostPerInv is the arm's steady-state $/invocation.
func (r RolloutArmRow) SteadyCostPerInv() float64 {
	if r.SteadyReqs == 0 {
		return 0
	}
	return r.SteadyCostUSD / float64(r.SteadyReqs)
}

// RolloutResult aggregates the three-arm comparison.
type RolloutResult struct {
	Config            RolloutConfig
	Members           []string // replay order; storm members flagged in render
	Storm             map[string]bool
	Groups            int
	Span              time.Duration
	StormAt, SteadyAt time.Duration
	Rows              []RolloutArmRow
	// EventLog is the controller arm's transition log — the loop itself.
	EventLog string
	// Statuses is the controller arm's final per-function state.
	Statuses []rollout.Status
	// OpenMetrics is the controller's lambdatrim_rollout_* exposition.
	OpenMetrics []byte
}

// Rollout runs the closed-loop replay with the default configuration,
// reusing the suite's cached debloating results.
func (s *Suite) Rollout() (*RolloutResult, error) {
	cfg := DefaultRolloutConfig()
	var storm, clean []*debloat.Result
	for _, name := range cfg.StormApps {
		res, err := s.Debloat(name)
		if err != nil {
			return nil, err
		}
		storm = append(storm, res)
	}
	for _, name := range cfg.CleanApps {
		res, err := s.Debloat(name)
		if err != nil {
			return nil, err
		}
		clean = append(clean, res)
	}
	return RolloutCompare(storm, clean, s.Platform, s.fillConfig(debloat.DefaultConfig()), cfg)
}

// rolloutMember is one fleet member of the replay.
type rolloutMember struct {
	name   string
	storm  bool
	basic  map[string]any
	res    *debloat.Result
	healed *debloat.Result // oracle-clean artifact (storm members)
}

// RolloutCompare replays the seeded fleet trace under the three deployment
// regimes. The debloat config is used for the controller's self-heal rerun
// and for the oracle-clean counterfactual artifacts.
func RolloutCompare(storm, clean []*debloat.Result, platform faas.Config, dcfg debloat.Config, cfg RolloutConfig) (*RolloutResult, error) {
	advCase := appspec.TestCase{Name: "advanced", Event: advancedEvent}
	var members []*rolloutMember
	for _, res := range storm {
		healed, err := debloat.Rerun(res, []appspec.TestCase{advCase}, dcfg)
		if err != nil {
			return nil, fmt.Errorf("rollout: oracle-clean rerun for %s: %w", res.Original.Name, err)
		}
		members = append(members, &rolloutMember{
			name: res.Original.Name, storm: true,
			basic: res.Original.Oracle[0].Event, res: res, healed: healed,
		})
	}
	for _, res := range clean {
		members = append(members, &rolloutMember{
			name:  res.Original.Name,
			basic: res.Original.Oracle[0].Event, res: res,
		})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("rollout: no members")
	}

	groups := burstGroups(cfg.Seed, rolloutRequests)
	retry := faas.DefaultRetryPolicy()
	span := groups[len(groups)-1].start
	out := &RolloutResult{
		Config:   cfg,
		Groups:   len(groups),
		Span:     span,
		StormAt:  time.Duration(float64(span) * stormFrac),
		SteadyAt: time.Duration(float64(span) * steadyFrac),
		Storm:    make(map[string]bool),
	}
	for _, m := range members {
		out.Members = append(out.Members, m.name)
		out.Storm[m.name] = m.storm
	}

	// replay drives the shared trace through one arm's invoke function.
	replay := func(label string, p *faas.Platform,
		invoke func(m *rolloutMember, events []map[string]any) ([]*faas.Invocation, error)) (RolloutArmRow, error) {
		row := RolloutArmRow{Arm: label}
		for gi, g := range groups {
			m := members[gi%len(members)]
			if gap := g.start - p.Now(); gap > 0 {
				p.Advance(gap)
			}
			ev := m.basic
			if m.storm && g.start >= out.StormAt {
				ev = advancedEvent
			}
			events := make([]map[string]any, g.size)
			for i := range events {
				events[i] = ev
			}
			start := p.Now()
			invs, err := invoke(m, events)
			if err != nil {
				return row, fmt.Errorf("rollout %s %s: %w", label, m.name, err)
			}
			for _, inv := range invs {
				row.Requests++
				row.CostUSD += inv.CostUSD
				if inv.FallbackUsed {
					row.Fallbacks++
				}
				if start+inv.E2E >= out.SteadyAt {
					row.SteadyReqs++
					row.SteadyCostUSD += inv.CostUSD
					if inv.Kind == faas.ColdStart {
						row.SteadyCold++
					}
				}
			}
		}
		return row, nil
	}

	// Arm 1: the paper's static fallback wrapper, no controller.
	{
		p := faas.New(platform)
		for _, m := range members {
			if m.storm {
				p.DeployWithFallback(m.res.App, m.res.Original)
			} else {
				p.Deploy(m.res.App)
			}
		}
		row, err := replay("fallback-only", p, func(m *rolloutMember, events []map[string]any) ([]*faas.Invocation, error) {
			return p.InvokeGroupWithRetry(m.res.App.Name, events, retry)
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}

	// Arm 2: the closed-loop controller.
	{
		p := faas.New(platform)
		ctrl := rollout.New(p, rollout.Config{Debloat: dcfg, Tracer: platform.Tracer})
		for _, m := range members {
			if err := ctrl.Manage(m.res); err != nil {
				return nil, fmt.Errorf("rollout: manage %s: %w", m.name, err)
			}
		}
		row, err := replay("rollout", p, func(m *rolloutMember, events []map[string]any) ([]*faas.Invocation, error) {
			return ctrl.InvokeGroup(m.name, events)
		})
		if err != nil {
			return nil, err
		}
		for _, name := range out.Members {
			st, _ := ctrl.Status(name)
			row.Opens += st.Opens
			row.Heals += st.Heals
			out.Statuses = append(out.Statuses, st)
		}
		out.EventLog = ctrl.EventLog()
		out.OpenMetrics = ctrl.OpenMetrics()
		out.Rows = append(out.Rows, row)
	}

	// Arm 3: the oracle-clean counterfactual.
	{
		p := faas.New(platform)
		for _, m := range members {
			if m.storm {
				p.Deploy(m.healed.App)
			} else {
				p.Deploy(m.res.App)
			}
		}
		row, err := replay("oracle-clean", p, func(m *rolloutMember, events []map[string]any) ([]*faas.Invocation, error) {
			return p.InvokeGroupWithRetry(m.res.App.Name, events, retry)
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the closed-loop comparison: the controller's transition
// log, final per-function state, the three-arm cost table, and the
// controller's OpenMetrics exposition.
func (r *RolloutResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rollout — closed-loop canary, breaker, and self-heal over a seeded trace (seed %d)\n", r.Config.Seed)
	var names []string
	for _, name := range r.Members {
		tag := "clean"
		if r.Storm[name] {
			tag = "storm"
		}
		names = append(names, fmt.Sprintf("%s (%s)", name, tag))
	}
	fmt.Fprintf(&b, "members: %s; %d burst groups over %s\n",
		strings.Join(names, ", "), r.Groups, r.Span.Round(time.Second))
	fmt.Fprintf(&b, "storm: advanced-mode traffic to storm members from %s; steady-state window from %s\n",
		monitor.FmtOffset(r.StormAt), monitor.FmtOffset(r.SteadyAt))
	b.WriteString(rollout.Policy() + "\n\n")

	b.WriteString("controller events:\n")
	if r.EventLog == "" {
		b.WriteString("  (none)\n")
	} else {
		for _, line := range strings.Split(strings.TrimRight(r.EventLog, "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	b.WriteString("\nfinal controller state:\n")
	for _, st := range r.Statuses {
		fmt.Fprintf(&b, "  %-18s active=%-22s version=%d breaker=%-6s opens=%d heals=%d\n",
			st.Function, st.Active, st.Version, st.Breaker, st.Opens, st.Heals)
	}

	fmt.Fprintf(&b, "\n%-14s %6s %6s %6s %6s %14s %14s %10s\n",
		"Arm", "Reqs", "Fallb", "Opens", "Heals", "$/inv(all)", "$/inv(steady)", "SteadyCold")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %6d %6d %6d %6d %14.9f %14.9f %10d\n",
			row.Arm, row.Requests, row.Fallbacks, row.Opens, row.Heals,
			row.CostPerInv(), row.SteadyCostPerInv(), row.SteadyCold)
	}
	b.WriteString("\nthe fallback-only arm double-bills every storm request to the end of the trace; the controller breaks the storm, re-debloats with the failing inputs, and its steady-state $/inv converges to the oracle-clean level\n")

	b.WriteString("\nrollout metrics:\n")
	for _, line := range strings.Split(strings.TrimRight(string(r.OpenMetrics), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}
