package obs

import (
	"strconv"
	"strings"
)

// MetricName sanitizes a metric or series name for text exposition:
// characters outside [a-zA-Z0-9_] become '_', under the "lambdatrim_"
// namespace every exposition in this repository shares (the tracer's
// registry, the monitor, the fleet result and the rollout controller).
func MetricName(s string) string {
	var b strings.Builder
	b.WriteString("lambdatrim_")
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// FormatFloat renders a sample value in its shortest round-trip form.
func FormatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteFamily writes one OpenMetrics family: its "# TYPE name typ" line,
// then each sample line, newline-terminated.
func WriteFamily(b *strings.Builder, name, typ string, lines ...string) {
	b.WriteString("# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
}

// OpenMetrics renders the snapshot as an OpenMetrics text exposition:
// counters as counter families, gauges as gauge families, and histograms
// as gauge families carrying count/sum and the snapshot quantiles as
// labeled samples. The snapshot is already name-sorted, so the exposition
// is byte-stable. An empty snapshot yields just the EOF terminator.
func (s Snapshot) OpenMetrics() []byte {
	var b strings.Builder
	for _, c := range s.Counters {
		n := MetricName(c.Name)
		WriteFamily(&b, n, "counter", n+"_total "+strconv.FormatInt(c.Value, 10))
	}
	for _, g := range s.Gauges {
		n := MetricName(g.Name)
		WriteFamily(&b, n, "gauge", n+" "+FormatFloat(g.Value))
	}
	for _, h := range s.Histograms {
		n := MetricName(h.Name)
		WriteFamily(&b, n+"_count", "counter", n+"_count "+strconv.FormatUint(h.Count, 10))
		WriteFamily(&b, n+"_sum", "gauge", n+"_sum "+FormatFloat(h.Sum))
		WriteFamily(&b, n, "gauge",
			n+`{quantile="0.5"} `+FormatFloat(h.P50),
			n+`{quantile="0.95"} `+FormatFloat(h.P95),
			n+`{quantile="0.99"} `+FormatFloat(h.P99))
	}
	b.WriteString("# EOF\n")
	return []byte(b.String())
}
