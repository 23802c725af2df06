package monitor

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestLabeledSeriesCanonical(t *testing.T) {
	if got := LabeledSeries("req.total"); got != "req.total" {
		t.Fatalf("no labels: got %q", got)
	}
	a := LabeledSeries("req.total", Label{"function", "f1"}, Label{"arm", "debloated"})
	b := LabeledSeries("req.total", Label{"arm", "debloated"}, Label{"function", "f1"})
	if a != b {
		t.Fatalf("label order changed encoding: %q vs %q", a, b)
	}
	want := `req.total{arm="debloated",function="f1"}`
	if a != want {
		t.Fatalf("encoding = %q, want %q", a, want)
	}
}

func TestSplitSeriesRoundTrip(t *testing.T) {
	name := LabeledSeries("cost.usd", Label{"function", "fn-007"}, Label{"phase", "init"})
	fam, labels := SplitSeries(name)
	if fam != "cost.usd" {
		t.Fatalf("family = %q", fam)
	}
	if len(labels) != 2 || labels[0] != (Label{"function", "fn-007"}) || labels[1] != (Label{"phase", "init"}) {
		t.Fatalf("labels = %v", labels)
	}
	if re := LabeledSeries(fam, labels...); re != name {
		t.Fatalf("re-encode = %q, want %q", re, name)
	}
}

func TestSplitSeriesDegenerate(t *testing.T) {
	for _, name := range []string{
		"req.total",        // unlabeled
		"req.total{",       // unterminated
		"req.total{x}",     // no '='
		`req.total{x=y}`,   // unquoted value
		`req.total{x="y}`,  // half-quoted
		"weird{name=\"v\"", // no closing brace
	} {
		fam, labels := SplitSeries(name)
		if fam != name || labels != nil {
			t.Fatalf("SplitSeries(%q) = %q, %v; want opaque passthrough", name, fam, labels)
		}
	}
}

func TestStoreScan(t *testing.T) {
	st := NewStore(time.Minute, 10)
	st.Record("s", 30*time.Second, 1) // window 0
	st.Record("s", 3*time.Minute, 2)  // window 3 (1 and 2 skipped → zero)
	var starts []time.Duration
	var counts []uint64
	st.Scan("s", 0, 4*time.Minute, func(start time.Duration, r Rollup) {
		starts = append(starts, start)
		counts = append(counts, r.Count)
	})
	if len(starts) != 4 {
		t.Fatalf("visited %d windows, want 4 (%v)", len(starts), starts)
	}
	for i, want := range []time.Duration{0, time.Minute, 2 * time.Minute, 3 * time.Minute} {
		if starts[i] != want {
			t.Fatalf("window %d starts at %v, want %v", i, starts[i], want)
		}
	}
	if counts[0] != 1 || counts[1] != 0 || counts[2] != 0 || counts[3] != 1 {
		t.Fatalf("counts = %v, want [1 0 0 1]", counts)
	}

	// Windows past the latest write and before `from` are not visited.
	starts = nil
	st.Scan("s", 2*time.Minute, time.Hour, func(start time.Duration, _ Rollup) {
		starts = append(starts, start)
	})
	if len(starts) != 2 || starts[0] != 2*time.Minute || starts[1] != 3*time.Minute {
		t.Fatalf("clamped scan visited %v", starts)
	}

	// Nil store, missing series, and empty ranges are all no-ops.
	var nilStore *Store
	nilStore.Scan("s", 0, time.Hour, func(time.Duration, Rollup) { t.Fatal("nil store scanned") })
	st.Scan("missing", 0, time.Hour, func(time.Duration, Rollup) { t.Fatal("missing series scanned") })
	st.Scan("s", time.Hour, time.Hour, func(time.Duration, Rollup) { t.Fatal("empty range scanned") })
}

func TestStoreScanEviction(t *testing.T) {
	st := NewStore(time.Minute, 4)
	for w := 0; w < 10; w++ {
		st.Record("s", time.Duration(w)*time.Minute, float64(w))
	}
	var starts []time.Duration
	st.Scan("s", 0, time.Hour, func(start time.Duration, _ Rollup) {
		starts = append(starts, start)
	})
	// Only the last 4 windows (6..9) remain in the ring.
	if len(starts) != 4 || starts[0] != 6*time.Minute || starts[3] != 9*time.Minute {
		t.Fatalf("post-eviction scan visited %v", starts)
	}
}

func TestStoreScanMatchesRange(t *testing.T) {
	st := NewStore(time.Minute, 60)
	for i := 0; i < 500; i++ {
		at := time.Duration(i*7) * time.Second
		st.Record("s", at, float64(i%13))
	}
	from, to := 3*time.Minute, 40*time.Minute
	want := st.Range("s", from, to)
	var got Rollup
	st.Scan("s", from, to, func(_ time.Duration, r Rollup) { got.Merge(r) })
	if got != want {
		t.Fatalf("Scan fold %+v != Range %+v", got, want)
	}
}

func TestStoreFamiliesGroupsLabels(t *testing.T) {
	st := NewStore(time.Minute, 10)
	st.Record("req.total", time.Second, 2)
	st.Record(LabeledSeries("req.total", Label{"function", "a"}), time.Second, 2)
	st.Record(LabeledSeries("req.total", Label{"function", "b"}), 2*time.Second, 5)
	st.Record("other", time.Second, 1)
	var b strings.Builder
	StoreFamilies(&b, st, func(series, kind string) string {
		if series == `req.total{function="b"}` && kind == "max" {
			return ExemplarAnnotation([]Label{{"span_id", "deadbeef"}}, 5, 2*time.Second)
		}
		return ""
	})
	got := b.String()
	want := `# TYPE lambdatrim_other_count counter
lambdatrim_other_count 1
# TYPE lambdatrim_other_sum gauge
lambdatrim_other_sum 1
# TYPE lambdatrim_other_max gauge
lambdatrim_other_max 1
# TYPE lambdatrim_req_total_count counter
lambdatrim_req_total_count 1
lambdatrim_req_total_count{function="a"} 1
lambdatrim_req_total_count{function="b"} 1
# TYPE lambdatrim_req_total_sum gauge
lambdatrim_req_total_sum 2
lambdatrim_req_total_sum{function="a"} 2
lambdatrim_req_total_sum{function="b"} 5
# TYPE lambdatrim_req_total_max gauge
lambdatrim_req_total_max 2
lambdatrim_req_total_max{function="a"} 2
lambdatrim_req_total_max{function="b"} 5 # {span_id="deadbeef"} 5 2
`
	if got != want {
		t.Fatalf("grouped exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// The grouped writer must keep unlabeled stores byte-identical to the
// historical per-series writer (the goldens depend on it).
func TestStoreFamiliesUnlabeledCompat(t *testing.T) {
	st := NewStore(time.Minute, 10)
	st.Record("req.total", time.Second, 1.5)
	st.Record("cost.usd", time.Second, 0.25)
	var b strings.Builder
	StoreFamilies(&b, st, nil)
	var legacy strings.Builder
	for _, name := range st.Names() {
		tot := st.Total(name)
		mn := obs.MetricName(name)
		obs.WriteFamily(&legacy, mn+"_count", "counter",
			mn+"_count "+strconv.FormatUint(tot.Count, 10))
		obs.WriteFamily(&legacy, mn+"_sum", "gauge",
			mn+"_sum "+obs.FormatFloat(tot.Sum))
		obs.WriteFamily(&legacy, mn+"_max", "gauge",
			mn+"_max "+obs.FormatFloat(tot.Max))
	}
	if b.String() != legacy.String() {
		t.Fatalf("unlabeled exposition drifted:\ngot:\n%s\nwant:\n%s", b.String(), legacy.String())
	}
}
