package fleet

import (
	"container/heap"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/obs/query"
	"repro/internal/stats"
)

// Result is the merged outcome of a fleet replay. Every field is a pure
// function of (Config minus Workers, fns): rendering, exposition, spans,
// and alerts are byte-identical across worker counts.
type Result struct {
	Functions int
	Workers   int
	Blocks    int

	Period     time.Duration
	Resolution time.Duration
	KeepAlive  time.Duration
	Seed       int64

	Invocations uint64
	ColdStarts  uint64
	Errors      uint64
	// PeakLive is the largest per-function instance pool seen.
	PeakLive int
	// Latest is the newest sample completion time.
	Latest time.Duration

	// Store is the merged TSDB; Ledger/Arms/Archetypes the cost ledgers
	// keyed by function, arm, and "archetype/arm"; Latency the cumulative
	// E2E histogram. All nil when the replay ran with DisableTelemetry.
	Store      *monitor.Store
	Ledger     *monitor.Ledger
	Arms       *monitor.Ledger
	Archetypes *monitor.Ledger
	Latency    *stats.Histogram

	SLOs       []monitor.SLO
	Alerts     []monitor.AlertEvent
	FireCounts []monitor.SLOFireCount
	Frames     []string

	// Slowest, Priciest, and Sampled are the exemplar sets, best-first.
	Slowest  []Exemplar
	Priciest []Exemplar
	Sampled  []Exemplar

	// ArmFns counts fleet members per arm.
	ArmFns map[string]int

	// Chaos is the resilience scorecard — non-nil only when the replay
	// ran with Config.Chaos and telemetry enabled.
	Chaos *chaos.Scorecard
}

// Scorecard renders the resilience scorecard, empty outside chaos
// replays.
func (r *Result) Scorecard() string {
	if r.Chaos == nil {
		return ""
	}
	return r.Chaos.Render()
}

// CostUSD is the fleet's total Eq.-1 bill (0 with telemetry disabled).
func (r *Result) CostUSD() float64 { return r.Ledger.Total().CostUSD() }

// AlertsFired sums fire transitions across objectives.
func (r *Result) AlertsFired() int {
	n := 0
	for _, fc := range r.FireCounts {
		n += fc.Fired
	}
	return n
}

// AlertLog renders the alert transitions in the canonical log format.
func (r *Result) AlertLog() string { return monitor.RenderAlertLog(r.Alerts) }

// QueryEngine returns an mql engine over the merged store, anchored at the
// replay's newest sample. Nil-store results evaluate to zero, matching the
// DisableTelemetry contract.
func (r *Result) QueryEngine() *query.Engine {
	return &query.Engine{Store: r.Store, Latest: r.Latest}
}

// Dashboard returns the concatenated dashboard frames.
func (r *Result) Dashboard() string { return strings.Join(r.Frames, "") }

// topK sizes the report's top-spender table and each of its three
// exemplar sets.
const topK = 5

// Spender is one row of the top-spender table.
type Spender struct {
	Function string
	Phase    monitor.Phase
}

// spenderHeap is a min-heap on (cost asc, name desc): the root is the
// weakest kept candidate, so pushing every function and popping overflow
// keeps the k costliest with a deterministic name tiebreak.
type spenderHeap []Spender

func (h spenderHeap) Len() int { return len(h) }
func (h spenderHeap) Less(i, j int) bool {
	ci, cj := h[i].Phase.CostUSD(), h[j].Phase.CostUSD()
	if ci != cj {
		return ci < cj
	}
	return h[i].Function > h[j].Function
}
func (h spenderHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *spenderHeap) Push(x any)   { *h = append(*h, x.(Spender)) }
func (h *spenderHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopSpenders returns the k costliest functions, largest bill first with
// a name tiebreak (k <= 0 uses the report's table size, topK). The
// selection runs over the merged ledger with a bounded heap, so fleets of
// any size produce the table without sorting every function.
func (r *Result) TopSpenders(k int) []Spender {
	if k <= 0 {
		k = topK
	}
	if r.Ledger == nil {
		return nil
	}
	h := make(spenderHeap, 0, k+1)
	for _, name := range r.Ledger.Functions() {
		heap.Push(&h, Spender{Function: name, Phase: r.Ledger.Function(name)})
		if len(h) > k {
			heap.Pop(&h)
		}
	}
	out := make([]Spender, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Spender)
	}
	return out
}

// renderFrames sweeps the merged windows at DashboardEvery boundaries and
// renders cumulative counters, the interval request rate, and the firing
// objectives at each boundary. Firing state comes from the alert
// transitions: a boundary tick at T precedes a frame at T (the live
// monitor's tie order), so transitions with At <= T are in effect.
func renderFrames(cfg *Config, p *partial, alerts []monitor.AlertEvent) []string {
	res := monitor.DefaultResolution
	end := (p.latest/res + 1) * res
	var frames []string
	var req, errs, cold monitor.Rollup
	var cost monitor.Rollup
	firing := map[string]bool{}
	ai := 0
	prev := time.Duration(0)
	emit := func(T time.Duration) {
		prevReq := req.Count
		req.Merge(p.store.Range("req.total", prev, T))
		errs.Merge(p.store.Range("req.error", prev, T))
		cold.Merge(p.store.Range("req.cold", prev, T))
		cost.Merge(p.store.Range("cost.usd", prev, T))
		for ai < len(alerts) && alerts[ai].At <= T {
			firing[alerts[ai].SLO] = alerts[ai].Firing
			ai++
		}
		coldPct := 0.0
		if req.Count > 0 {
			coldPct = 100 * float64(cold.Count) / float64(req.Count)
		}
		rate := 0.0
		if T > prev {
			rate = float64(req.Count-prevReq) / (T - prev).Seconds()
		}
		var names []string
		for name, on := range firing {
			if on {
				names = append(names, name)
			}
		}
		firingStr := "-"
		if len(names) > 0 {
			sortStrings(names)
			firingStr = strings.Join(names, ",")
		}
		frames = append(frames, fmt.Sprintf(
			"[%s] req=%-9d err=%-5d cold=%-7d cold%%=%-5.1f rate=%8.1f/s cost=$%.6f firing=%s\n",
			monitor.FmtOffset(T), req.Count, errs.Count, cold.Count, coldPct,
			rate, cost.Sum, firingStr))
		prev = T
	}
	for T := cfg.DashboardEvery; T < end; T += cfg.DashboardEvery {
		emit(T)
	}
	emit(end)
	return frames
}

// sortStrings is a tiny insertion sort: firing sets hold a handful of
// names, not worth pulling sort into the hot path's import graph twice.
func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// armNames returns the arm labels, sorted.
func (r *Result) armNames() []string {
	names := make([]string, 0, len(r.ArmFns))
	for arm := range r.ArmFns {
		names = append(names, arm)
	}
	sortStrings(names)
	return names
}

// Render produces the fleet replay's text report: population and
// partition header, the headline counters, per-arm cost attribution, SLO
// outcomes with the alert log, dashboard frames, the top-spender table,
// and the three exemplar sets.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet replay — %d functions over %s (seed %d, blocks %d)\n",
		r.Functions, r.Period, r.Seed, r.Blocks)
	fmt.Fprintf(&b, "policy: keep-alive %s, resolution %s; peak pool %d instances\n",
		r.KeepAlive, r.Resolution, r.PeakLive)
	coldPct := 0.0
	if r.Invocations > 0 {
		coldPct = 100 * float64(r.ColdStarts) / float64(r.Invocations)
	}
	fmt.Fprintf(&b, "invocations=%d cold=%d (%.1f%%) errors=%d cost=$%.6f\n",
		r.Invocations, r.ColdStarts, coldPct, r.Errors, r.CostUSD())

	if len(r.ArmFns) > 0 {
		b.WriteString("arms:\n")
		for _, arm := range r.armNames() {
			ph := r.Arms.Function(arm)
			armCold := 0.0
			if ph.Invocations > 0 {
				armCold = 100 * float64(ph.ColdStarts) / float64(ph.Invocations)
			}
			fmt.Fprintf(&b, "  %-10s fns=%-6d invoc=%-9d cold=%-7d (%4.1f%%) init$=%.6f handler$=%.6f total$=%.6f\n",
				arm, r.ArmFns[arm], ph.Invocations, ph.ColdStarts, armCold,
				ph.InitUSD, ph.ExecUSD, ph.CostUSD())
		}
		if o, d := r.Arms.Function("original"), r.Arms.Function("debloated"); o.Invocations > 0 && d.Invocations > 0 {
			perInvO := o.CostUSD() / float64(o.Invocations)
			perInvD := d.CostUSD() / float64(d.Invocations)
			fmt.Fprintf(&b, "  %-10s init$/inv %.12f -> %.12f, total$/inv %.12f -> %.12f\n",
				"delta", o.InitUSD/float64(o.Invocations), d.InitUSD/float64(d.Invocations),
				perInvO, perInvD)
		}
	}

	if len(r.SLOs) > 0 {
		b.WriteString("slo objectives:\n")
		for _, s := range r.SLOs {
			fmt.Fprintf(&b, "  %-24s kind=%s burn>=%.1f windows=%s/%s\n",
				s.Name, s.Kind, s.Burn, s.ShortWindow, s.LongWindow)
		}
		fmt.Fprintf(&b, "alerts fired=%d:\n", r.AlertsFired())
		if len(r.Alerts) == 0 {
			b.WriteString("  (none)\n")
		}
		for _, e := range r.Alerts {
			b.WriteString("  " + e.String() + "\n")
		}
	}

	if len(r.Frames) > 0 {
		b.WriteString("dashboard:\n")
		for _, f := range r.Frames {
			b.WriteString("  " + f)
		}
	}

	spenders := r.TopSpenders(0)
	if len(spenders) > 0 {
		b.WriteString("top spenders:\n")
		for _, row := range spenders {
			ph := row.Phase
			fmt.Fprintf(&b, "  %-14s invoc=%-8d cold=%-6d init$=%.6f handler$=%.6f total$=%.6f\n",
				row.Function, ph.Invocations, ph.ColdStarts, ph.InitUSD, ph.ExecUSD, ph.CostUSD())
		}
	}

	writeExemplars := func(title string, xs []Exemplar) {
		if len(xs) == 0 {
			return
		}
		fmt.Fprintf(&b, "exemplars (%s):\n", title)
		for _, e := range xs {
			label := e.Function
			if e.Archetype != "" {
				label += " " + e.Archetype + "/" + e.Arm
			}
			cold := "warm"
			if e.Cold {
				cold = "cold"
			}
			fmt.Fprintf(&b, "  %-32s at=%s e2e=%-12s %s cost=$%.12f\n",
				label, monitor.FmtOffset(e.At), e.E2E, cold, e.CostUSD)
		}
	}
	writeExemplars("slowest", r.Slowest)
	writeExemplars("priciest", r.Priciest)
	writeExemplars("seed-keyed sample", r.Sampled)
	if r.Chaos != nil {
		b.WriteString(r.Chaos.Render())
	}
	return b.String()
}

// exemplarFor attaches OpenMetrics exemplars to the exposition: the
// slowest invocation rides req.total's max line and the priciest rides
// cost.usd's, each carrying the function name and the span ID that
// resolves (via obs.Tracer.FindSpan after EmitSpans) to the invocation's
// span subtree. Exemplar sets are fold-order independent, so the
// annotations inherit the exposition's byte stability.
func (r *Result) exemplarFor(series, kind string) string {
	if kind != "max" {
		return ""
	}
	pick := func(xs []Exemplar, v func(Exemplar) float64) string {
		if len(xs) == 0 {
			return ""
		}
		e := xs[0]
		return monitor.ExemplarAnnotation([]monitor.Label{
			{Key: "function", Val: e.Function},
			{Key: "span_id", Val: e.SpanID()},
		}, v(e), e.At)
	}
	switch series {
	case "req.total":
		return pick(r.Slowest, func(e Exemplar) float64 { return e.E2E.Seconds() })
	case "cost.usd":
		return pick(r.Priciest, func(e Exemplar) float64 { return e.CostUSD })
	}
	return ""
}

// OpenMetrics renders the merged result in the monitor's exposition
// format — per-series cumulative rollups (with exemplar annotations on
// the outlier families), SLO firing state, latency quantiles, phase
// dollars — plus fleet-level families: member and invocation counts and
// per-arm attribution. Byte-stable for a fixed (Config minus Workers,
// fns).
func (r *Result) OpenMetrics() []byte {
	var b strings.Builder
	monitor.StoreFamilies(&b, r.Store, r.exemplarFor)
	monitor.SummaryFamilies(&b, r.FireCounts, r.Latency, r.Ledger.Total())
	obs.WriteFamily(&b, "lambdatrim_fleet_functions", "gauge",
		"lambdatrim_fleet_functions "+strconv.Itoa(r.Functions))
	obs.WriteFamily(&b, "lambdatrim_fleet_invocations_total", "counter",
		"lambdatrim_fleet_invocations_total "+strconv.FormatUint(r.Invocations, 10))
	obs.WriteFamily(&b, "lambdatrim_fleet_cold_starts_total", "counter",
		"lambdatrim_fleet_cold_starts_total "+strconv.FormatUint(r.ColdStarts, 10))
	if len(r.ArmFns) > 0 {
		fns := make([]string, 0, len(r.ArmFns))
		cost := make([]string, 0, len(r.ArmFns))
		invs := make([]string, 0, len(r.ArmFns))
		for _, arm := range r.armNames() {
			ph := r.Arms.Function(arm)
			fns = append(fns, `lambdatrim_fleet_arm_functions{arm="`+arm+`"} `+strconv.Itoa(r.ArmFns[arm]))
			invs = append(invs, `lambdatrim_fleet_arm_invocations_total{arm="`+arm+`"} `+strconv.FormatUint(ph.Invocations, 10))
			cost = append(cost, `lambdatrim_fleet_arm_cost_usd{arm="`+arm+`"} `+obs.FormatFloat(ph.CostUSD()))
		}
		obs.WriteFamily(&b, "lambdatrim_fleet_arm_functions", "gauge", fns...)
		obs.WriteFamily(&b, "lambdatrim_fleet_arm_invocations_total", "counter", invs...)
		obs.WriteFamily(&b, "lambdatrim_fleet_arm_cost_usd", "gauge", cost...)
	}
	b.WriteString("# EOF\n")
	return []byte(b.String())
}

// EmitSpans records a bounded span tree onto tr for the flamegraph
// exporter: one root span covering the fleet's total billed time, one
// child per "archetype/arm" bucket (widest first) sized by its billed
// duration, with init/exec/idle leaf phases — "where does the billed time
// go" at a glance, a few dozen spans no matter how many invocations
// replayed. Invocations and ColdStarts, when non-zero, are added to tr's
// fleet.invocations and fleet.cold_starts counters.
func (r *Result) EmitSpans(tr *obs.Tracer) {
	if tr == nil || r.Archetypes == nil {
		return
	}
	type bucket struct {
		name   string
		ph     monitor.Phase
		billed time.Duration
	}
	var buckets []bucket
	var total time.Duration
	for _, name := range r.Archetypes.Functions() {
		ph := r.Archetypes.Function(name)
		billed := ph.BilledInit + ph.BilledExec + ph.BilledIdle
		buckets = append(buckets, bucket{name, ph, billed})
		total += billed
	}
	// Widest-first layout with a name tiebreak.
	for i := 1; i < len(buckets); i++ {
		for j := i; j > 0 && (buckets[j].billed > buckets[j-1].billed ||
			(buckets[j].billed == buckets[j-1].billed && buckets[j].name < buckets[j-1].name)); j-- {
			buckets[j], buckets[j-1] = buckets[j-1], buckets[j]
		}
	}
	root := tr.StartChild(nil, "fleet.replay", "fleet", 0)
	cursor := time.Duration(0)
	for _, bk := range buckets {
		s := tr.StartChild(root, bk.name, "fleet.archetype", cursor)
		at := cursor
		phase := func(name string, d time.Duration) {
			if d <= 0 {
				return
			}
			ps := tr.StartChild(s, name, "fleet.phase", at)
			at += d
			tr.End(ps, at)
		}
		phase("init", bk.ph.BilledInit)
		phase("exec", bk.ph.BilledExec)
		phase("idle", bk.ph.BilledIdle)
		cursor += bk.billed
		tr.End(s, cursor)
	}
	tr.End(root, total)
	r.emitExemplarSpans(tr)
	if r.Invocations > 0 {
		tr.Metrics().Inc("fleet.invocations", int64(r.Invocations))
	}
	if r.ColdStarts > 0 {
		tr.Metrics().Inc("fleet.cold_starts", int64(r.ColdStarts))
	}
}

// emitExemplarSpans records a second root holding one span per kept
// exemplar on the real replay timeline ([At-E2E, At], init/exec phase
// children), each carrying the span ID that the OpenMetrics exemplar
// annotations reference — FindSpan(id) on the receiving tracer lands on
// the invocation behind the annotation. The three sets are deduplicated
// by span identity and laid out in (At, Function, seq) order, so the
// subtree is a pure function of the merged exemplar sets.
func (r *Result) emitExemplarSpans(tr *obs.Tracer) {
	var xs []Exemplar
	seen := map[uint64]bool{}
	for _, set := range [][]Exemplar{r.Slowest, r.Priciest, r.Sampled} {
		for _, e := range set {
			if e.span != 0 && !seen[e.span] {
				seen[e.span] = true
				xs = append(xs, e)
			}
		}
	}
	if len(xs) == 0 {
		return
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && tiebreak(&xs[j], &xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	first := xs[0].At - xs[0].E2E
	last := xs[0].At
	root := tr.StartChild(nil, "fleet.exemplars", "fleet", first)
	for _, e := range xs {
		start := e.At - e.E2E
		if start < first {
			first = start
		}
		if e.At > last {
			last = e.At
		}
		s := tr.StartChild(root, e.Function, "fleet.exemplar", start)
		s.ID = e.SpanID()
		s.Add(
			obs.String("archetype", e.Archetype),
			obs.String("arm", e.Arm),
			obs.Bool("cold", e.Cold),
			obs.Attr{Key: "cost_usd", Val: obs.FormatFloat(e.CostUSD)},
		)
		if e.Init > 0 {
			tr.StartChild(s, "init", "fleet.phase", start).Finish(start + e.Init)
		}
		tr.StartChild(s, "exec", "fleet.phase", start+e.Init).Finish(e.At)
		tr.End(s, e.At)
	}
	root.Start = first
	tr.End(root, last)
}
