package monitor

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind selects what an SLO measures. Ratio kinds (everything but
// KindCostRate) follow the SRE formulation: an error budget is the allowed
// fraction of bad events, and the burn rate is the observed bad fraction
// divided by that budget — burn 1.0 spends the budget exactly, burn N
// exhausts it N× too fast. KindCostRate burns a monetary budget instead:
// observed USD per hour over the window divided by the budgeted rate.
type Kind int

const (
	// KindLatency counts an invocation bad when its E2E latency exceeds
	// Threshold. With Budget 0.05 this is a p95 objective: at most 5% of
	// requests may be slower than the threshold.
	KindLatency Kind = iota
	// KindErrorRate counts an invocation bad when it failed (any failure
	// class, platform or handler).
	KindErrorRate
	// KindColdFraction counts cold starts as bad events — FaaSLight's
	// framing of cold-start latency as the service-level signal.
	KindColdFraction
	// KindCostPerInvocation counts an invocation bad when its Eq.-1 bill
	// exceeds BudgetUSD.
	KindCostPerInvocation
	// KindCostRate burns a monetary budget: observed USD/hour over the
	// window divided by BudgetUSD (the budgeted USD/hour).
	KindCostRate
	// KindAvailability counts an invocation bad when the platform failed
	// it: any class other than "ok" — except "shed", which is the client
	// deliberately dropping load to protect the rest (counting sheds as
	// unavailability would penalize the mitigation that preserves it).
	KindAvailability
)

func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindErrorRate:
		return "error-rate"
	case KindColdFraction:
		return "cold-fraction"
	case KindCostPerInvocation:
		return "cost-per-invocation"
	case KindCostRate:
		return "cost-rate"
	case KindAvailability:
		return "availability"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// SLO is one service-level objective with multi-window burn-rate alerting:
// the alert fires only when BOTH the short and the long window burn above
// the threshold — the short window makes alerts responsive, the long
// window keeps one bad burst from paging (Google SRE workbook, ch. 5).
type SLO struct {
	// Name identifies the objective in alerts and expositions.
	Name string
	Kind Kind
	// Threshold is the per-invocation latency bound (KindLatency).
	Threshold time.Duration
	// BudgetUSD is the per-invocation cost bound (KindCostPerInvocation)
	// or the budgeted USD/hour (KindCostRate).
	BudgetUSD float64
	// Budget is the allowed bad-event fraction for ratio kinds
	// (default 0.05).
	Budget float64
	// ShortWindow and LongWindow are the two trailing evaluation windows
	// (defaults: 5 and 30 store resolutions).
	ShortWindow, LongWindow time.Duration
	// Burn is the firing threshold on the burn rate (default 1).
	Burn float64
}

// WithDefaults fills zero fields from the store resolution — the exact
// parameter set a Monitor at that resolution would evaluate. Idempotent,
// so callers may pre-apply it before FoldSample/EvaluateSLOs (which
// applies it again internally).
func (s SLO) WithDefaults(res time.Duration) SLO { return s.withDefaults(res) }

// withDefaults fills zero fields from the store resolution.
func (s SLO) withDefaults(res time.Duration) SLO {
	if s.Budget <= 0 {
		s.Budget = 0.05
	}
	if s.ShortWindow <= 0 {
		s.ShortWindow = 5 * res
	}
	if s.LongWindow <= 0 {
		s.LongWindow = 30 * res
	}
	if s.LongWindow < s.ShortWindow {
		s.LongWindow = s.ShortWindow
	}
	if s.Burn <= 0 {
		s.Burn = 1
	}
	return s
}

// badSeries is the store series counting this SLO's bad events. Latency
// and per-invocation-cost objectives carry their threshold, so each gets a
// per-SLO series; error and cold objectives share the generic ones.
func (s SLO) badSeries() string {
	switch s.Kind {
	case KindErrorRate:
		return seriesErrors
	case KindColdFraction:
		return seriesCold
	default:
		return "slo." + s.Name + ".bad"
	}
}

// ownsBadSeries reports whether the objective needs its own bad-event
// series at fold time: error and cold objectives read the shared
// req.error/req.cold series, and cost-rate objectives read cost.usd.
func (s SLO) ownsBadSeries() bool {
	switch s.Kind {
	case KindErrorRate, KindColdFraction, KindCostRate:
		return false
	}
	return true
}

// bad reports whether a sample violates the objective (ratio kinds only).
func (s SLO) bad(sample *Sample) bool {
	switch s.Kind {
	case KindLatency:
		return sample.E2E > s.Threshold
	case KindErrorRate:
		return sample.Class != "ok"
	case KindColdFraction:
		return sample.Cold
	case KindCostPerInvocation:
		return sample.CostUSD > s.BudgetUSD
	case KindAvailability:
		return sample.Class != "ok" && sample.Class != "shed"
	}
	return false
}

// AlertEvent is one deterministic alert transition on the virtual
// timeline. Firing events carry the burn rates that tripped the
// threshold; resolve events the rates that cleared it.
type AlertEvent struct {
	At        time.Duration
	SLO       string
	Firing    bool
	BurnShort float64
	BurnLong  float64
}

// String renders the canonical alert-log line.
func (e AlertEvent) String() string {
	state := "RESOLVED"
	if e.Firing {
		state = "FIRING"
	}
	return fmt.Sprintf("%-9s %-24s at=%-12s burn_short=%.2f burn_long=%.2f",
		state, e.SLO, fmtOffset(e.At), e.BurnShort, e.BurnLong)
}

// fmtOffset renders a virtual-time offset as +HHhMMmSSs.
// FmtOffset renders a virtual-time offset in the canonical log form used
// across alert and rollout event logs.
func FmtOffset(d time.Duration) string { return fmtOffset(d) }

func fmtOffset(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	h := d / time.Hour
	m := (d % time.Hour) / time.Minute
	s := (d % time.Minute) / time.Second
	return fmt.Sprintf("+%02dh%02dm%02ds", h, m, s)
}

// sloState tracks one objective's evaluation state.
type sloState struct {
	def    SLO
	firing bool
	fired  int // fire transitions, for summaries
}

// burn computes the burn rate over the trailing window ending at T — the
// shared implementation lives in burnOver (eval.go) so the live monitor and
// the post-hoc sharded-replay sweep evaluate identically.
func (m *Monitor) burn(def SLO, T, window time.Duration) float64 {
	return burnOver(m.store, def, T, window)
}

// ParseSLOs parses a compact SLO spec of comma-separated key=value pairs:
//
//	p95=800ms     latency objective: 95% of requests under 800 ms
//	err=2%        error-rate objective: at most 2% failed requests
//	cold=30%      cold-fraction objective: at most 30% cold starts
//	costinv=2e-7  per-invocation cost objective: 95% of bills under $2e-7
//	costrate=0.5  budget objective: at most $0.50 per hour
//	avail=2%      availability objective: at most 2% of requests failed
//	              (shed requests are excluded; see KindAvailability)
//
// Windows and burn thresholds take the engine defaults. An empty spec
// yields no objectives.
func ParseSLOs(spec string) ([]SLO, error) {
	var out []SLO
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("monitor: bad SLO %q (want key=value)", part)
		}
		switch key {
		case "p95":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("monitor: bad latency threshold %q: %v", val, err)
			}
			if d <= 0 {
				return nil, fmt.Errorf("monitor: latency threshold %q must be positive", val)
			}
			out = append(out, SLO{Name: "latency-p95", Kind: KindLatency, Threshold: d, Budget: 0.05})
		case "err":
			f, err := parseFraction(val)
			if err != nil {
				return nil, err
			}
			out = append(out, SLO{Name: "error-rate", Kind: KindErrorRate, Budget: f})
		case "cold":
			f, err := parseFraction(val)
			if err != nil {
				return nil, err
			}
			out = append(out, SLO{Name: "cold-fraction", Kind: KindColdFraction, Budget: f})
		case "costinv":
			f, err := parseBudgetUSD(val)
			if err != nil {
				return nil, fmt.Errorf("monitor: bad cost threshold %q: %v", val, err)
			}
			out = append(out, SLO{Name: "cost-per-invocation", Kind: KindCostPerInvocation, BudgetUSD: f, Budget: 0.05})
		case "costrate":
			f, err := parseBudgetUSD(val)
			if err != nil {
				return nil, fmt.Errorf("monitor: bad cost rate %q: %v", val, err)
			}
			out = append(out, SLO{Name: "cost-burn", Kind: KindCostRate, BudgetUSD: f})
		case "avail":
			f, err := parseFraction(val)
			if err != nil {
				return nil, err
			}
			out = append(out, SLO{Name: "availability", Kind: KindAvailability, Budget: f})
		default:
			return nil, fmt.Errorf("monitor: unknown SLO key %q (known: p95 err cold costinv costrate avail)", key)
		}
	}
	return out, nil
}

// parseBudgetUSD parses a dollar amount that must be positive and finite.
func parseBudgetUSD(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
		return 0, fmt.Errorf("want a positive finite amount, got %v", f)
	}
	return f, nil
}

func parseFraction(val string) (float64, error) {
	pct := strings.HasSuffix(val, "%")
	f, err := strconv.ParseFloat(strings.TrimSuffix(val, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("monitor: bad fraction %q: %v", val, err)
	}
	if pct {
		f /= 100
	}
	// Written as a positive check so NaN (incomparable) is rejected too.
	if !(f > 0 && f <= 1) {
		return 0, fmt.Errorf("monitor: fraction %q out of (0, 1]", val)
	}
	return f, nil
}

// sortedFiring returns the names of currently-firing SLOs, sorted.
func sortedFiring(states []sloState) []string {
	var out []string
	for i := range states {
		if states[i].firing {
			out = append(out, states[i].def.Name)
		}
	}
	sort.Strings(out)
	return out
}
