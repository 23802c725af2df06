package monitor

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// labelBlock renders a decoded label set as an OpenMetrics label block
// ("" for unlabeled series). Keys arrive sorted (SplitSeries preserves the
// canonical encoding's order) and values are written verbatim, mirroring
// the LabeledSeries producer contract.
func labelBlock(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Val)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// ExemplarAnnotation renders an OpenMetrics exemplar suffix for a metric
// line: " # {labels} value timestamp", with the timestamp in seconds of
// simulated time. Appended verbatim by StoreFamilies exemplar callbacks.
func ExemplarAnnotation(labels []Label, value float64, ts time.Duration) string {
	var b strings.Builder
	b.WriteString(" # ")
	b.WriteString(labelBlock(labels))
	if len(labels) == 0 {
		b.WriteString("{}")
	}
	b.WriteByte(' ')
	b.WriteString(obs.FormatFloat(value))
	b.WriteByte(' ')
	b.WriteString(obs.FormatFloat(ts.Seconds()))
	return b.String()
}

// StoreFamilies renders every series in a store as OpenMetrics
// count/sum/max families. Labeled series (the LabeledSeries encoding) are
// grouped under their family's TYPE lines with proper OpenMetrics label
// blocks — within a family the unlabeled series (if any) comes first,
// labeled series follow in canonical-name order, and families are emitted
// in sorted order, so a store holding only unlabeled series renders
// byte-identically to the historical per-series writer. The optional
// exemplar callback receives each (store series name, kind) pair — kind is
// "count", "sum", or "max" — and returns an annotation suffix (typically
// ExemplarAnnotation output) or "".
func StoreFamilies(b *strings.Builder, st *Store, exemplar func(series, kind string) string) {
	type member struct {
		name   string // full store series name
		labels []Label
	}
	byFam := make(map[string][]member)
	var fams []string
	// Names() is sorted, which within one family already yields the order
	// we emit (the bare family name is a strict prefix of every labeled
	// variant); families themselves are re-sorted below because '{' sorts
	// above letters and could interleave prefix families.
	for _, name := range st.Names() {
		fam, labels := SplitSeries(name)
		if _, ok := byFam[fam]; !ok {
			fams = append(fams, fam)
		}
		byFam[fam] = append(byFam[fam], member{name, labels})
	}
	sort.Strings(fams)
	kinds := []struct {
		kind, suffix, typ string
	}{
		{"count", "_count", "counter"},
		{"sum", "_sum", "gauge"},
		{"max", "_max", "gauge"},
	}
	for _, fam := range fams {
		mn := obs.MetricName(fam)
		for _, k := range kinds {
			lines := make([]string, 0, len(byFam[fam]))
			for _, m := range byFam[fam] {
				tot := st.Total(m.name)
				var val string
				switch k.kind {
				case "count":
					val = strconv.FormatUint(tot.Count, 10)
				case "sum":
					val = obs.FormatFloat(tot.Sum)
				default:
					val = obs.FormatFloat(tot.Max)
				}
				line := mn + k.suffix + labelBlock(m.labels) + " " + val
				if exemplar != nil {
					line += exemplar(m.name, k.kind)
				}
				lines = append(lines, line)
			}
			obs.WriteFamily(b, mn+k.suffix, k.typ, lines...)
		}
	}
}

// SummaryFamilies writes the families that follow the store families in
// every monitor-shaped exposition: per-objective firing state and fire
// counts, cumulative E2E latency quantiles, and the ledger's per-phase
// dollars. A family with nothing to report (no objectives, no latency
// observations, no invocations) is omitted. Monitor.OpenMetrics and the
// fleet result's exposition both write them through here.
func SummaryFamilies(b *strings.Builder, counts []SLOFireCount, latency *stats.Histogram, cost Phase) {
	if len(counts) > 0 {
		firing := make([]string, 0, len(counts))
		fired := make([]string, 0, len(counts))
		for _, c := range counts {
			v := "0"
			if c.Firing {
				v = "1"
			}
			firing = append(firing, `lambdatrim_slo_firing{slo="`+c.Name+`"} `+v)
			fired = append(fired, `lambdatrim_slo_fired_total{slo="`+c.Name+`"} `+strconv.Itoa(c.Fired))
		}
		obs.WriteFamily(b, "lambdatrim_slo_firing", "gauge", firing...)
		obs.WriteFamily(b, "lambdatrim_slo_fired_total", "counter", fired...)
	}
	if latency != nil && latency.Count() > 0 {
		obs.WriteFamily(b, "lambdatrim_latency_seconds", "gauge",
			`lambdatrim_latency_seconds{quantile="0.5"} `+obs.FormatFloat(latency.Quantile(0.50)),
			`lambdatrim_latency_seconds{quantile="0.95"} `+obs.FormatFloat(latency.Quantile(0.95)),
			`lambdatrim_latency_seconds{quantile="0.99"} `+obs.FormatFloat(latency.Quantile(0.99)))
	}
	if cost.Invocations > 0 {
		obs.WriteFamily(b, "lambdatrim_cost_phase_usd", "gauge",
			`lambdatrim_cost_phase_usd{phase="init"} `+obs.FormatFloat(cost.InitUSD),
			`lambdatrim_cost_phase_usd{phase="handler"} `+obs.FormatFloat(cost.ExecUSD),
			`lambdatrim_cost_phase_usd{phase="idle"} `+obs.FormatFloat(cost.IdleUSD),
			`lambdatrim_cost_phase_usd{phase="restore"} `+obs.FormatFloat(cost.RestoreUSD))
	}
}

// OpenMetrics renders the monitor state as an OpenMetrics text exposition:
// per-series cumulative count/sum/max (StoreFamilies) followed by the
// SummaryFamilies. Series, label values, and quantiles are emitted in
// sorted/fixed order, so the exposition is byte-stable for a fixed sample
// sequence. Safe on a nil monitor (empty exposition, still terminated).
func (m *Monitor) OpenMetrics() []byte {
	var b strings.Builder
	if m != nil {
		m.mu.Lock()
		StoreFamilies(&b, m.store, nil)
		m.mu.Unlock()
		SummaryFamilies(&b, m.FireCounts(), m.Latency(), m.ledger.Total())
	}
	b.WriteString("# EOF\n")
	return []byte(b.String())
}
