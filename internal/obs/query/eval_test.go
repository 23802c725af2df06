package query

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/monitor"
)

// buildStore seeds a store with a deterministic minute-resolution workload:
// one req.total sample per minute for 10 minutes (values 1..10 seconds of
// E2E), cost.usd at an exactly-representable eighth of the value (so ratio
// expectations hold bitwise), and a labeled variant for f1.
func buildStore() *monitor.Store {
	st := monitor.NewStore(time.Minute, 60)
	for i := 0; i < 10; i++ {
		at := time.Duration(i)*time.Minute + 30*time.Second
		v := float64(i + 1)
		st.Record("req.total", at, v)
		st.Record("cost.usd", at, v/8)
		if i%2 == 0 {
			st.Record(monitor.LabeledSeries("req.total", monitor.Label{Key: "function", Val: "f1"}), at, v)
		}
	}
	return st
}

func evalAt(t *testing.T, e *Engine, q string, at time.Duration) float64 {
	t.Helper()
	x, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return e.Instant(x, at)
}

func TestInstantEval(t *testing.T) {
	e := &Engine{Store: buildStore(), Latest: 9*time.Minute + 30*time.Second}
	end := e.End()
	if end != 10*time.Minute {
		t.Fatalf("End() = %v", end)
	}
	cases := []struct {
		q    string
		want float64
	}{
		{"req.total", 55},                           // cumulative sum 1..10
		{"count(req.total[10m])", 10},               //
		{"sum(req.total[5m])", 6 + 7 + 8 + 9 + 10},  // trailing 5 windows
		{"max(req.total[10m])", 10},                 //
		{"mean(req.total[2m])", 9.5},                //
		{"rate(req.total[5m])", 40.0 / 300},         // sum/seconds
		{"cost.usd / req.total", 0.125},             // ratio of cumulatives
		{"p50(req.total[10m])", 5},                  // nearest-rank over window means
		{"p99(req.total[10m])", 10},                 //
		{`count(req.total{function="f1"}[10m])`, 5}, // labeled selector
		{"req.total - 55", 0},                       //
		{"req.total / 0", 0},                        // div-by-zero is total
		{"missing.series", 0},                       //
		{"2 * 3 + 1", 7},                            //
		{"-req.total", -55},                         //
	}
	for _, c := range cases {
		if got := evalAt(t, e, c.q, -1); got != c.want {
			t.Errorf("%s = %v, want %v", c.q, got, c.want)
		}
	}
	// Evaluation at an earlier boundary sees only earlier windows.
	if got := evalAt(t, e, "req.total", 3*time.Minute); got != 1+2+3 {
		t.Errorf("req.total @3m = %v, want 6", got)
	}
}

func TestRangeEval(t *testing.T) {
	e := &Engine{Store: buildStore(), Latest: 9*time.Minute + 30*time.Second}
	x := mustParse(t, "count(req.total[1m])")
	pts := e.Range(x, 0, -1, 0)
	if len(pts) != 11 { // boundaries 0m..10m
		t.Fatalf("got %d points: %v", len(pts), pts)
	}
	if pts[0].V != 0 || pts[1].V != 1 || pts[10].V != 1 {
		t.Fatalf("points = %v", pts)
	}
	// Non-boundary endpoints snap up.
	pts = e.Range(x, 90*time.Second, 3*time.Minute, 0)
	if len(pts) != 2 || pts[0].T != 2*time.Minute || pts[1].T != 3*time.Minute {
		t.Fatalf("snapped points = %v", pts)
	}
}

func TestInstantJSONShape(t *testing.T) {
	e := &Engine{Store: buildStore(), Latest: 9*time.Minute + 30*time.Second}
	got, err := e.InstantJSON("cost.usd / req.total", -1)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"query":"cost.usd / req.total","type":"instant","at_us":600000000,"value":0.125}`
	if got != want {
		t.Fatalf("InstantJSON = %s, want %s", got, want)
	}
	if _, err := e.InstantJSON("frob(x[1m])", -1); err == nil {
		t.Fatal("bad query did not error")
	}
}

func TestRangeJSONShape(t *testing.T) {
	e := &Engine{Store: buildStore(), Latest: 9*time.Minute + 30*time.Second}
	got, err := e.RangeJSON("count(req.total[1m])", 0, 2*time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"query":"count(req.total[1m])","type":"range","step_us":60000000,` +
		`"points":[{"t_us":0,"v":0},{"t_us":60000000,"v":1},{"t_us":120000000,"v":1}]}`
	if got != want {
		t.Fatalf("RangeJSON = %s, want %s", got, want)
	}
	if strings.Contains(got, "NaN") {
		t.Fatal("NaN leaked into JSON")
	}
}

// TestRangeJSONStepMatchesSpacing is the metadata property: for random
// resolutions and requested steps — including steps that are not a whole
// number of resolutions, which Range snaps up — the reported step_us is the
// spacing between consecutive points' t_us.
func TestRangeJSONStepMatchesSpacing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		res := time.Duration(1+rng.Intn(120)) * time.Second
		st := monitor.NewStore(res, 32)
		st.Record("req.total", time.Duration(rng.Int63n(int64(40*res))), 1)
		e := &Engine{Store: st, Latest: 16*res + time.Duration(rng.Int63n(int64(44*res)))}
		step := time.Duration(rng.Int63n(int64(8 * res))) // 0 means "the resolution"
		out, err := e.RangeJSON("count(req.total[1m])", 0, -1, step)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			StepUS int64 `json:"step_us"`
			Points []struct {
				TUS int64 `json:"t_us"`
			} `json:"points"`
		}
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("res=%v step=%v: bad JSON %s: %v", res, step, out, err)
		}
		if len(doc.Points) < 2 {
			t.Fatalf("res=%v step=%v: %d points, want >= 2: %s", res, step, len(doc.Points), out)
		}
		for j := 1; j < len(doc.Points); j++ {
			if gap := doc.Points[j].TUS - doc.Points[j-1].TUS; gap != doc.StepUS {
				t.Fatalf("res=%v step=%v: step_us=%d but points %d and %d are %d µs apart",
					res, step, doc.StepUS, j-1, j, gap)
			}
		}
	}
	// The CLI case that exposed the bug: a 90 s step at 1 m resolution.
	e := &Engine{Store: buildStore(), Latest: 9*time.Minute + 30*time.Second}
	if got := e.Step(90 * time.Second); got != 2*time.Minute {
		t.Fatalf("Step(90s) at 1m resolution = %v, want 2m", got)
	}
}

// TestInstantJSONSnapsToBoundary is the instant query's metadata property:
// for random resolutions and evaluation times — most of them between
// boundaries — at_us is the next resolution boundary at or after the
// requested time, and the value is the Range point at that boundary, so an
// instant query never counts a sample its reported time has not reached.
func TestInstantJSONSnapsToBoundary(t *testing.T) {
	x, err := Parse("req.total")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		res := time.Duration(1+rng.Intn(120)) * time.Second
		st := monitor.NewStore(res, 64)
		for j := 0; j < 20; j++ {
			st.Record("req.total", time.Duration(rng.Int63n(int64(40*res))), 1)
		}
		e := &Engine{Store: st, Latest: 40 * res}
		at := time.Duration(rng.Int63n(int64(40 * res)))
		out, err := e.InstantJSON("req.total", at)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			AtUS  int64   `json:"at_us"`
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("bad JSON %s: %v", out, err)
		}
		b := time.Duration(doc.AtUS) * time.Microsecond
		if b%res != 0 || b < at || b-at >= res {
			t.Fatalf("res=%v at=%v: at_us=%d is not the next boundary", res, at, doc.AtUS)
		}
		pts := e.Range(x, b, b, 0)
		if len(pts) != 1 || pts[0].T != b || pts[0].V != doc.Value {
			t.Fatalf("res=%v at=%v: instant %s, range point %v", res, at, out, pts)
		}
	}
	// The reported repro: samples at 30 s and 100 s at 1 m resolution,
	// queried at 90 s, evaluate at (and report) the 2 m boundary.
	st := monitor.NewStore(time.Minute, 60)
	st.Record("req.total", 30*time.Second, 1)
	st.Record("req.total", 100*time.Second, 1)
	e := &Engine{Store: st, Latest: 100 * time.Second}
	got, err := e.InstantJSON("req.total", 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"query":"req.total","type":"instant","at_us":120000000,"value":2}`; got != want {
		t.Fatalf("InstantJSON at 90s = %s, want %s", got, want)
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	if got := e.Instant(Number(3), 0); got != 0 {
		t.Fatalf("nil engine instant = %v", got)
	}
	if pts := e.Range(Number(3), 0, time.Minute, 0); pts != nil {
		t.Fatalf("nil engine range = %v", pts)
	}
}

// dayEngine queries a one-day, one-minute store with a sample in every
// window of the series the query smoke test reads.
func dayEngine() *Engine {
	st := monitor.NewStore(time.Minute, 24*60+6*60+1)
	var at time.Duration
	for at = 30 * time.Second; at < 24*time.Hour; at += time.Minute {
		st.Record("req.total", at, 1)
		st.Record("cost.usd", at, 0.5)
		st.Record(monitor.LabeledSeries("cost.usd", monitor.Label{Key: "phase", Val: "init"}), at, 0.25)
		st.Record(monitor.LabeledSeries("req.total", monitor.Label{Key: "arm", Val: "debloated"}), at, 1)
		st.Record("fleet:cost_usd:sum5m", at, 1)
		st.Record("fleet:req:rate5m", at, 1)
	}
	return &Engine{Store: st, Latest: at - time.Minute}
}

// sumOf joins n copies of term with " + ".
func sumOf(term string, n int) string {
	return strings.TrimSuffix(strings.Repeat(term+" + ", n), " + ")
}

// TestQueryWorkBound checks the per-request read bound: two short queries
// whose evaluation at a one-minute step over a day costs seconds are
// rejected with both numbers named, and the query smoke test's queries
// pass as instant queries and at 5 m and 1 h steps.
func TestQueryWorkBound(t *testing.T) {
	e := dayEngine()
	for _, q := range []string{
		sumOf("sum(req.total[24h])", 100),   // 2,197 bytes
		sumOf("rate(req.total[5m])", 10000), // about 220 KB
	} {
		_, err := e.RangeJSON(q, 0, -1, time.Minute)
		if err == nil || !strings.Contains(err.Error(), "store windows") || !strings.Contains(err.Error(), "16777216") {
			t.Errorf("%d-byte query at a 1m step: err = %v, want the read bound", len(q), err)
		}
	}
	for _, q := range []string{
		"cost.usd / req.total",
		`sum(cost.usd{phase="init"}[24h]) / sum(cost.usd[24h])`,
		`rate(req.total{arm="debloated"}[6h])`,
		"fleet:cost_usd:sum5m",
		"max(fleet:req:rate5m[24h])",
	} {
		if _, err := e.InstantJSON(q, -1); err != nil {
			t.Errorf("instant %s: %v", q, err)
		}
		for _, step := range []time.Duration{5 * time.Minute, time.Hour} {
			if _, err := e.RangeJSON(q, 0, -1, step); err != nil {
				t.Errorf("%s at step %s: %v", q, step, err)
			}
		}
	}
	// An instant query is one boundary: a sum that a range at a minute step
	// rejects passes.
	if _, err := e.InstantJSON(sumOf("sum(req.total[24h])", 100), -1); err != nil {
		t.Errorf("instant sum of 100 day windows: %v", err)
	}
}
