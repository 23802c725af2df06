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

func TestNilEngine(t *testing.T) {
	var e *Engine
	if got := e.Instant(Number(3), 0); got != 0 {
		t.Fatalf("nil engine instant = %v", got)
	}
	if pts := e.Range(Number(3), 0, time.Minute, 0); pts != nil {
		t.Fatalf("nil engine range = %v", pts)
	}
}
