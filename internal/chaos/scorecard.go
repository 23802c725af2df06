package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/monitor"
)

// Telemetry series the chaos replay records into the monitor store,
// alongside the standard req.*/cost.usd families. Demand/shed/bad land at
// the arrival instant (they describe the admission decision, which is
// what incident-impact detection windows over); everything else lands at
// the request's completion time like ordinary samples.
const (
	// SeriesDemand counts every arrival (value 1, at arrival time).
	SeriesDemand = "chaos.demand"
	// SeriesServed records each served request's client E2E seconds at
	// completion — Count is the served volume, Sum/Count the mean latency.
	SeriesServed = "chaos.served"
	// SeriesBad counts dropped, non-shed arrivals (value 1, arrival time).
	SeriesBad = "chaos.bad"
	// SeriesShed counts client-side sheds (value 1, arrival time).
	SeriesShed = "chaos.shed"
	// SeriesThrottled counts throttle-rejected attempts (admitted or not).
	SeriesThrottled = "chaos.throttled"
	// SeriesRetryDenied counts retries the budget refused.
	SeriesRetryDenied = "chaos.retry.denied"
	// SeriesFallback counts served requests whose uncovered path fired.
	SeriesFallback = "chaos.fallback"
	// SeriesHedge / SeriesHedgeWin count speculative second attempts and
	// the ones that finished first.
	SeriesHedge    = "chaos.hedge"
	SeriesHedgeWin = "chaos.hedge.win"
	// SeriesBreakerOpen counts requests that tripped a breaker open.
	SeriesBreakerOpen = "chaos.breaker.open"
)

// Series is a replay shard's handle set over the chaos.* series. Each
// handle resolves its series on first write (monitor.Handle), so a shard
// that never drops a request creates no chaos.bad series, just as per-sample
// Store.Record calls would not. Single-owner, like the shard's store.
type Series struct {
	demand, served, bad, shed, throttled, retryDenied,
	fallback, hedge, hedgeWin, breakerOpen monitor.Handle
}

// NewSeries prepares the chaos handle set over a shard's store.
func NewSeries(st *monitor.Store) *Series {
	return &Series{
		demand:      st.Handle(SeriesDemand),
		served:      st.Handle(SeriesServed),
		bad:         st.Handle(SeriesBad),
		shed:        st.Handle(SeriesShed),
		throttled:   st.Handle(SeriesThrottled),
		retryDenied: st.Handle(SeriesRetryDenied),
		fallback:    st.Handle(SeriesFallback),
		hedge:       st.Handle(SeriesHedge),
		hedgeWin:    st.Handle(SeriesHedgeWin),
		breakerOpen: st.Handle(SeriesBreakerOpen),
	}
}

// Arrival counts one arrival's demand at its arrival instant.
func (s *Series) Arrival(at time.Duration) { s.demand.Record(at, 1) }

// Drop records a dropped arrival at its arrival instant.
func (s *Series) Drop(at time.Duration, d *Drop) {
	if d.Class == "shed" {
		s.shed.Record(at, 1)
	} else {
		s.bad.Record(at, 1)
	}
	if d.ThrottledAttempts > 0 {
		s.throttled.Record(at, float64(d.ThrottledAttempts))
	}
	if d.RetriesDenied > 0 {
		s.retryDenied.Record(at, float64(d.RetriesDenied))
	}
}

// Served records a served request at its completion instant.
func (s *Series) Served(at time.Duration, out *Outcome) {
	s.served.Record(at, out.E2E.Seconds())
	if out.ThrottledAttempts > 0 {
		s.throttled.Record(at, float64(out.ThrottledAttempts))
	}
	if out.RetriesDenied > 0 {
		s.retryDenied.Record(at, float64(out.RetriesDenied))
	}
	if out.Fallback {
		s.fallback.Record(at, 1)
	}
	if out.Hedged {
		s.hedge.Record(at, 1)
		if out.HedgeWon {
			s.hedgeWin.Record(at, 1)
		}
	}
	if out.BreakerOpened {
		s.breakerOpen.Record(at, 1)
	}
}

// ArmStats accumulates one deployment arm's resilience counters across a
// replay. Every field is either an integer counter or an independent
// float sum, so shards merge order-independently per arm (the fleet
// merges them in block-index order regardless).
type ArmStats struct {
	// Demand is every arrival; Served the requests that completed; Shed,
	// Unavailable, and ThrottledDrops partition the arrivals that did not
	// (client shed, outage drop, throttle/congestion drop).
	Demand, Served, Shed, Unavailable, ThrottledDrops uint64
	// ThrottledAttempts counts throttle-rejected attempts inside the
	// admission loop (a served request may still have wasted several);
	// Retries the retry attempts spent; RetriesDenied the retries the
	// budget refused.
	ThrottledAttempts, Retries, RetriesDenied uint64
	// Degradation mechanisms.
	Hedges, HedgeWins, Fallbacks, Routed, BreakerOpens uint64
	// CostUSD is the arm's total bill across every attempt.
	CostUSD float64
	// BrownoutServed/BrownoutCostUSD cover the requests served inside a
	// brownout window — the slice where the fallback arm's double billing
	// amplifies.
	BrownoutServed  uint64
	BrownoutCostUSD float64
}

// Merge folds o into s.
func (s *ArmStats) Merge(o *ArmStats) {
	s.Demand += o.Demand
	s.Served += o.Served
	s.Shed += o.Shed
	s.Unavailable += o.Unavailable
	s.ThrottledDrops += o.ThrottledDrops
	s.ThrottledAttempts += o.ThrottledAttempts
	s.Retries += o.Retries
	s.RetriesDenied += o.RetriesDenied
	s.Hedges += o.Hedges
	s.HedgeWins += o.HedgeWins
	s.Fallbacks += o.Fallbacks
	s.Routed += o.Routed
	s.BreakerOpens += o.BreakerOpens
	s.CostUSD += o.CostUSD
	s.BrownoutServed += o.BrownoutServed
	s.BrownoutCostUSD += o.BrownoutCostUSD
}

// AddDrop counts one arrival the client loop gave up on (its demand
// included).
func (s *ArmStats) AddDrop(d *Drop) {
	s.Demand++
	switch d.Class {
	case "shed":
		s.Shed++
	case "unavailable":
		s.Unavailable++
	default:
		s.ThrottledDrops++
	}
	s.Retries += uint64(d.Retries)
	s.RetriesDenied += uint64(d.RetriesDenied)
	s.ThrottledAttempts += uint64(d.ThrottledAttempts)
}

// AddServed counts one served request (its demand included).
func (s *ArmStats) AddServed(out *Outcome) {
	s.Demand++
	s.Served++
	s.Retries += uint64(out.Retries)
	s.RetriesDenied += uint64(out.RetriesDenied)
	s.ThrottledAttempts += uint64(out.ThrottledAttempts)
	if out.Fallback {
		s.Fallbacks++
	}
	if out.Routed {
		s.Routed++
	}
	if out.BreakerOpened {
		s.BreakerOpens++
	}
	if out.Hedged {
		s.Hedges++
		if out.HedgeWon {
			s.HedgeWins++
		}
	}
	s.CostUSD += out.CostUSD
	if out.Brownout {
		s.BrownoutServed++
		s.BrownoutCostUSD += out.CostUSD
	}
}

// Unavailability is the fraction of demand the platform failed (sheds
// excluded: deliberately dropping load to protect the rest is the
// mitigation, not the failure — see monitor.KindAvailability).
func (s *ArmStats) Unavailability() float64 {
	if s.Demand == 0 {
		return 0
	}
	return float64(s.Unavailable+s.ThrottledDrops) / float64(s.Demand)
}

// CostPerServed is the mean bill per completed request.
func (s *ArmStats) CostPerServed() float64 {
	if s.Served == 0 {
		return 0
	}
	return s.CostUSD / float64(s.Served)
}

// BrownoutAmplification is the arm's cost-per-served inside brownout
// windows over its cost-per-served outside them — the double-billing
// amplifier the fallback wrapper exhibits (§5.4). Zero when either slice
// is empty.
func (s *ArmStats) BrownoutAmplification() float64 {
	if s.BrownoutServed == 0 || s.Served <= s.BrownoutServed {
		return 0
	}
	in := s.BrownoutCostUSD / float64(s.BrownoutServed)
	out := (s.CostUSD - s.BrownoutCostUSD) / float64(s.Served-s.BrownoutServed)
	if out <= 0 {
		return 0
	}
	return in / out
}

// IncidentOutcome is one scheduled incident's measured blast radius.
type IncidentOutcome struct {
	Incident Incident
	// Impacted is how many store windows tripped the incident's impact
	// predicate; MTTR spans from the incident start to the end of the
	// last impacted window (zero: no measurable impact). The scan runs to
	// recoveryHorizon past the scheduled end, so lingering congestion
	// after the incident counts against recovery.
	Impacted int
	MTTR     time.Duration
	// Metric names the impact predicate; Peak its worst window value.
	Metric string
	Peak   float64
}

// Impact predicate parameters. Thresholds are deliberately coarse — the
// scorecard detects "clearly degraded" windows, not statistical drift.
const (
	// recoveryHorizon extends each incident's scan past its scheduled end
	// so post-incident congestion counts against MTTR.
	recoveryHorizon = 90 * time.Minute
	// badFracImpact marks a window impacted when more than this fraction
	// of its demand was dropped.
	badFracImpact = 0.02
	// latencyImpact marks a window impacted when its mean served latency
	// exceeds this multiple of the day's mean.
	latencyImpact = 1.6
	// coldImpact marks a window impacted when its cold fraction exceeds
	// this multiple of the day's mean plus an absolute floor.
	coldImpact      = 2.0
	coldImpactFloor = 0.05
)

// Scorecard is the replay's resilience summary: overall availability,
// per-arm mechanism and cost attribution, and per-incident blast radius
// with time-to-recovery. Built from merged, order-independent artifacts,
// so it inherits the replay's byte-identity across worker counts.
type Scorecard struct {
	Mitigations Mitigations
	Topology    Topology
	Resolution  time.Duration
	// Total folds every arm; Arms lists them sorted by name with their
	// fleet-member counts.
	Total ArmStats
	Arms  []ArmRow
	// Incidents follow the engine's schedule order.
	Incidents []IncidentOutcome
}

// ArmRow is one arm's scorecard line.
type ArmRow struct {
	Arm       string
	Functions int
	ArmStats
}

// BuildScorecard computes the scorecard from the merged store and the
// per-arm accumulators. armFns carries fleet-member counts per arm; a nil
// store (telemetry disabled) yields no incident outcomes.
func BuildScorecard(eng *Engine, store *monitor.Store, latest time.Duration,
	arms map[string]*ArmStats, armFns map[string]int) *Scorecard {
	sc := &Scorecard{
		Mitigations: eng.cfg.Mitigations,
		Topology:    DefaultTopology(),
		Resolution:  store.Resolution(),
	}
	names := make([]string, 0, len(arms))
	for name := range arms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sc.Total.Merge(arms[name])
		sc.Arms = append(sc.Arms, ArmRow{Arm: name, Functions: armFns[name], ArmStats: *arms[name]})
	}
	for _, in := range eng.cfg.Incidents {
		sc.Incidents = append(sc.Incidents, measureIncident(store, latest, in))
	}
	return sc
}

// measureIncident sweeps the incident's windows (plus the recovery
// horizon) with a kind-specific impact predicate and derives MTTR from
// the last impacted window.
func measureIncident(store *monitor.Store, latest time.Duration, in Incident) IncidentOutcome {
	out := IncidentOutcome{Incident: in}
	res := store.Resolution()
	if res <= 0 {
		return out
	}

	// Day-mean baselines for the relative predicates.
	served := store.Total(SeriesServed)
	cold := store.Total("req.cold")
	meanLat, meanCold := 0.0, 0.0
	if served.Count > 0 {
		meanLat = served.Sum / float64(served.Count)
		meanCold = float64(cold.Count) / float64(served.Count)
	}

	start := (in.Start / res) * res
	end := in.Start + in.Duration + recoveryHorizon
	if horizon := (latest/res + 1) * res; end > horizon {
		end = horizon
	}
	lastImpacted := time.Duration(-1)
	for T := start; T < end; T += res {
		impacted := false
		var v float64
		switch in.Kind {
		case ZoneOutage, ThrottleStorm:
			out.Metric = "bad-frac"
			demand := store.Range(SeriesDemand, T, T+res)
			bad := store.Range(SeriesBad, T, T+res)
			if demand.Count > 0 {
				v = float64(bad.Count) / float64(demand.Count)
				impacted = v > badFracImpact
			}
		case Brownout, LatencyStorm:
			out.Metric = "latency-x"
			w := store.Range(SeriesServed, T, T+res)
			if w.Count > 0 && meanLat > 0 {
				v = (w.Sum / float64(w.Count)) / meanLat
				impacted = v > latencyImpact
			}
		case Churn:
			out.Metric = "cold-frac"
			w := store.Range(SeriesServed, T, T+res)
			c := store.Range("req.cold", T, T+res)
			if w.Count > 0 {
				v = float64(c.Count) / float64(w.Count)
				impacted = v > meanCold*coldImpact+coldImpactFloor
			}
		}
		if impacted {
			out.Impacted++
			lastImpacted = T
			if v > out.Peak {
				out.Peak = v
			}
		}
	}
	if lastImpacted >= 0 {
		out.MTTR = lastImpacted + res - in.Start
		if out.MTTR < 0 {
			out.MTTR = 0
		}
	}
	return out
}

// Render produces the canonical scorecard text, byte-stable for a fixed
// replay identity.
func (sc *Scorecard) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "resilience scorecard — mitigations=%s topology=%dx%d\n",
		sc.Mitigations, sc.Topology.Zones, sc.Topology.HostsPerZone)
	t := &sc.Total
	fmt.Fprintf(&b, "availability=%.4f%% demand=%d served=%d shed=%d unavailable=%d throttled-drops=%d\n",
		100*(1-t.Unavailability()), t.Demand, t.Served, t.Shed, t.Unavailable, t.ThrottledDrops)
	fmt.Fprintf(&b, "mechanisms: retries=%d denied=%d throttled-attempts=%d hedges=%d won=%d fallbacks=%d routed=%d breaker-opens=%d\n",
		t.Retries, t.RetriesDenied, t.ThrottledAttempts, t.Hedges, t.HedgeWins,
		t.Fallbacks, t.Routed, t.BreakerOpens)

	if len(sc.Incidents) > 0 {
		b.WriteString("incidents:\n")
		for _, io := range sc.Incidents {
			mttr := "-"
			if io.Impacted > 0 {
				mttr = io.MTTR.String()
			}
			fmt.Fprintf(&b, "  %-52s impacted=%-5s mttr=%-10s peak %s=%.3f\n",
				io.Incident.String(), fmt.Sprintf("%dw", io.Impacted), mttr, io.Metric, io.Peak)
		}
	}

	if len(sc.Arms) > 0 {
		b.WriteString("arms:\n")
		for _, row := range sc.Arms {
			fmt.Fprintf(&b, "  %-10s fns=%-6d demand=%-9d served=%-9d unavail=%6.3f%% shed=%-7d hedge=%-6d fb=%-6d routed=%-6d opens=%-4d cost=$%.6f $/1k=%.6f\n",
				row.Arm, row.Functions, row.Demand, row.Served,
				100*row.Unavailability(), row.Shed, row.Hedges, row.Fallbacks,
				row.Routed, row.BreakerOpens, row.CostUSD, 1000*row.CostPerServed())
		}
		for _, row := range sc.Arms {
			if amp := row.BrownoutAmplification(); amp > 0 {
				in := row.BrownoutCostUSD / float64(row.BrownoutServed)
				out := (row.CostUSD - row.BrownoutCostUSD) / float64(row.Served-row.BrownoutServed)
				fmt.Fprintf(&b, "  %-10s brownout $/served %.9f vs calm %.9f (%.2fx)\n",
					row.Arm, in, out, amp)
			}
		}
	}
	return b.String()
}
