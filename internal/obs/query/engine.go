package query

import (
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/monitor"
)

// Engine evaluates parsed expressions against one store. The zero value is
// unusable; construct with the store a replay produced (fleet.Result.Store
// or Monitor.Store).
type Engine struct {
	Store *monitor.Store
	// Latest is the newest sample time the producer observed; instant
	// queries with at<0 and range queries with to<0 default to End().
	Latest time.Duration
}

// End returns the default evaluation boundary: the one that closes the
// window holding Latest — the same boundary the SLO sweep ends on, so a
// default instant query sees every sample. Zero for a nil engine or
// store (the DisableTelemetry shape).
func (e *Engine) End() time.Duration {
	if e == nil || e.Store == nil {
		return 0
	}
	res := e.Store.Resolution()
	if res <= 0 {
		return 0
	}
	return (e.Latest/res + 1) * res
}

// Instant evaluates x at boundary `at` (at<0 means End()).
func (e *Engine) Instant(x Expr, at time.Duration) float64 {
	if e == nil || e.Store == nil {
		return 0
	}
	if at < 0 {
		at = e.End()
	}
	return x.eval(e.Store, at)
}

// Point is one range-query evaluation.
type Point struct {
	T time.Duration
	V float64
}

// Range evaluates x at every boundary from..to inclusive, stepping by
// Step(step) (to<0 means End()). Endpoints snap up to the next resolution
// boundary so every evaluation point is a boundary.
func (e *Engine) Range(x Expr, from, to, step time.Duration) []Point {
	step = e.Step(step)
	if step <= 0 {
		return nil
	}
	if to < 0 {
		to = e.End()
	}
	if from < 0 {
		from = 0
	}
	res := e.Store.Resolution()
	from, to = snapUp(from, res), snapUp(to, res)
	var pts []Point
	for t := from; t <= to; t += step {
		pts = append(pts, Point{T: t, V: x.eval(e.Store, t)})
	}
	return pts
}

// Step returns the spacing Range actually uses for a requested step: the
// store resolution for step<=0, otherwise step rounded up to a whole number
// of resolutions (a range point must sit on a window boundary). Zero for a
// nil engine or store.
func (e *Engine) Step(step time.Duration) time.Duration {
	if e == nil || e.Store == nil {
		return 0
	}
	res := e.Store.Resolution()
	if res <= 0 {
		return 0
	}
	if step <= 0 {
		return res
	}
	return snapUp(step, res)
}

// snapUp rounds d up to the next multiple of res.
func snapUp(d, res time.Duration) time.Duration { return ((d + res - 1) / res) * res }

// jsonFloat renders v as a JSON number: shortest round-trip form, with the
// non-finite values (which no mql expression should produce — division by
// zero is defined as 0) clamped to 0 so the output is always valid JSON.
func jsonFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// InstantJSON parses and evaluates q at boundary `at` (<0: End()) and
// renders the result as one canonical JSON object. The rendering is
// hand-built and byte-stable: CLI goldens and the live /query endpoint
// share it, so a served response and the smoke artifact compare with cmp.
func (e *Engine) InstantJSON(q string, at time.Duration) (string, error) {
	x, err := Parse(q)
	if err != nil {
		return "", err
	}
	if at < 0 {
		at = e.End()
	}
	v := e.Instant(x, at)
	var b strings.Builder
	b.WriteString(`{"query":`)
	b.WriteString(strconv.Quote(q))
	b.WriteString(`,"type":"instant","at_us":`)
	b.WriteString(strconv.FormatInt(at.Microseconds(), 10))
	b.WriteString(`,"value":`)
	b.WriteString(jsonFloat(v))
	b.WriteString("}")
	return b.String(), nil
}

// RangeJSON parses and evaluates q over [from, to] stepping by step (see
// Range for defaulting) and renders the canonical JSON object, whose
// step_us is the snapped step the points are spaced by (Step).
func (e *Engine) RangeJSON(q string, from, to, step time.Duration) (string, error) {
	x, err := Parse(q)
	if err != nil {
		return "", err
	}
	pts := e.Range(x, from, to, step)
	// Report the spacing the points actually have, not the request.
	step = e.Step(step)
	var b strings.Builder
	b.WriteString(`{"query":`)
	b.WriteString(strconv.Quote(q))
	b.WriteString(`,"type":"range","step_us":`)
	b.WriteString(strconv.FormatInt(step.Microseconds(), 10))
	b.WriteString(`,"points":[`)
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"t_us":`)
		b.WriteString(strconv.FormatInt(p.T.Microseconds(), 10))
		b.WriteString(`,"v":`)
		b.WriteString(jsonFloat(p.V))
		b.WriteByte('}')
	}
	b.WriteString("]}")
	return b.String(), nil
}
