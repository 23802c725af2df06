package query

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs/monitor"
)

// sweepQueries cover every function, both unary and binary operators, a
// missing series, and windows that end the carry at once (90 s, 7 m) or
// after many boundaries (5 h).
var sweepQueries = []string{
	"req.total",
	"cost.usd / req.total",
	`sum(cost.usd{phase="init"}[5h]) / sum(cost.usd[5h])`,
	"count(req.total[90s])",
	"max(req.total[7m]) - max(cost.usd[5h])",
	"mean(cost.usd[90s]) * mean(req.total[5h])",
	"rate(req.total[7m]) / rate(cost.usd[5h])",
	"p50(req.total[5h])",
	"p95(cost.usd[90s]) + p99(cost.usd[5h])",
	"p90(req.total[7m]) - p50(req.total[7m])",
	"-missing.series + 2 * req.total",
	"-(cost.usd - sum(cost.usd[90s]))",
	"sum(req.total[7m]) / count(req.total[5h]) - req.total",
	`cost.usd{phase="init"} - 0.5 * sum(cost.usd{phase="init"}[7m])`,
	"1 / (cost.usd - cost.usd)",
}

// randomStore builds a store of 1–5 minute resolution and 10–310 windows
// and records up to 2 000 windows of samples into it, so most rings wrap.
// Values are not dyadic, so a fold in another order or of other windows
// shows in the bits. It returns the engine over the store.
func randomStore(rng *rand.Rand) *Engine {
	res := time.Duration(1+rng.Intn(5)) * time.Minute
	st := monitor.NewStore(res, 10+rng.Intn(301))
	span := 1 + rng.Intn(2000)
	init := monitor.LabeledSeries("cost.usd", monitor.Label{Key: "phase", Val: "init"})
	var latest time.Duration
	for w := 0; w < span; w++ {
		if rng.Intn(4) == 0 {
			continue // a window the timeline skips
		}
		for n := rng.Intn(4); n >= 0; n-- {
			at := time.Duration(w)*res + time.Duration(rng.Int63n(int64(res)))
			latest = max(latest, at)
			v := rng.Float64() * 10
			st.Record("req.total", at, v)
			st.Record("cost.usd", at, v/3)
			if rng.Intn(3) == 0 {
				st.Record(init, at, -v/7)
			}
		}
	}
	return &Engine{Store: st, Latest: latest}
}

// checkSweep compares Range with point evaluation at every boundary of
// the range, bit for bit.
func checkSweep(t *testing.T, e *Engine, x Expr, from, step time.Duration) {
	t.Helper()
	pts := e.Range(x, from, -1, step)
	first, last, spacing := e.rangeBounds(from, -1, step)
	want := 0
	if last >= first {
		want = int((last-first)/spacing) + 1
	}
	if len(pts) != want {
		t.Fatalf("%s from %v step %v: %d points, want %d", x, from, step, len(pts), want)
	}
	for i, p := range pts {
		at := first + time.Duration(i)*spacing
		v := x.eval(point{e.Store}, at)
		if p.T != at || math.Float64bits(p.V) != math.Float64bits(v) {
			t.Fatalf("%s from %v step %v (resolution %v): point %d is %v at %v, eval at %v is %v",
				x, from, step, e.Store.Resolution(), i, p.V, p.T, at, v)
		}
	}
}

// TestRangeMatchesPointEval: a range query's sweep, which carries the reads
// whose window starts at 0 from boundary to boundary, gives at every
// boundary exactly the bits of evaluating the expression there alone. The
// stores are random, their rings wrap, and each query runs at a random
// step and start; FuzzRangeSweep explores further.
func TestRangeMatchesPointEval(t *testing.T) {
	xs := make([]Expr, len(sweepQueries))
	for i, q := range sweepQueries {
		xs[i] = mustParse(t, q)
	}
	steps := []time.Duration{0, time.Minute, 90 * time.Second, 7 * time.Minute, time.Hour}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		e := randomStore(rng)
		for _, x := range xs {
			var from time.Duration
			switch rng.Intn(3) {
			case 1: // inside the replay, between boundaries
				from = time.Duration(rng.Int63n(int64(e.End()) + 1))
			case 2: // the last few boundaries
				from = max(0, e.End()-time.Duration(rng.Intn(4))*e.Store.Resolution())
			}
			checkSweep(t, e, x, from, steps[rng.Intn(len(steps))])
		}
	}
}

// FuzzRangeSweep is TestRangeMatchesPointEval over any query, store seed,
// step and start.
func FuzzRangeSweep(f *testing.F) {
	for i, q := range sweepQueries {
		f.Add(int64(i), q, uint16(i%4), uint16(i*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, q string, step, start uint16) {
		if len(q) > 256 {
			t.Skip("long queries only cost time")
		}
		x, err := Parse(q)
		if err != nil {
			return
		}
		e := randomStore(rand.New(rand.NewSource(seed)))
		res := e.Store.Resolution()
		checkSweep(t, e, x, time.Duration(start)*res/4, time.Duration(step)*res/2)
	})
}
