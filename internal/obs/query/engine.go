package query

import (
	"fmt"
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

// Instant evaluates x at the boundary for `at`: End() for at<0, otherwise
// `at` snapped up to the next resolution boundary (see boundary).
func (e *Engine) Instant(x Expr, at time.Duration) float64 {
	if e == nil || e.Store == nil {
		return 0
	}
	return x.eval(point{e.Store}, e.boundary(at))
}

// boundary returns the boundary a query at `at` evaluates at: End() for
// at<0, otherwise `at` snapped up to the next resolution boundary. Instant
// queries and Range's endpoints both snap through it: evaluating between
// boundaries would read the whole window `at` falls in, samples after `at`
// included.
func (e *Engine) boundary(at time.Duration) time.Duration {
	if at < 0 {
		return e.End()
	}
	if e == nil || e.Store == nil || e.Store.Resolution() <= 0 {
		return at
	}
	return snapUp(at, e.Store.Resolution())
}

// Point is one range-query evaluation.
type Point struct {
	T time.Duration
	V float64
}

// Range evaluates x at every boundary from..to inclusive, stepping by
// Step(step) (to<0 means End()). Endpoints snap up to the next resolution
// boundary so every evaluation point is a boundary. The boundaries are
// evaluated in one ascending sweep, which carries each rollup read whose
// window starts at 0 from one boundary to the next (see sweep): every
// point is x.eval at its boundary, bit for bit.
func (e *Engine) Range(x Expr, from, to, step time.Duration) []Point {
	from, to, step = e.rangeBounds(from, to, step)
	if to < from {
		return nil
	}
	src := &sweep{st: e.Store}
	pts := make([]Point, 0, (to-from)/step+1)
	for t := from; t <= to; t += step {
		pts = append(pts, Point{T: t, V: x.eval(src, t)})
	}
	return pts
}

// rangeBounds returns the first and last boundary Range evaluates at and
// their spacing; last < first when there is no point.
func (e *Engine) rangeBounds(from, to, step time.Duration) (time.Duration, time.Duration, time.Duration) {
	step = e.Step(step)
	if step <= 0 {
		return 0, -1, 0
	}
	if from < 0 {
		from = 0
	}
	return snapUp(from, e.Store.Resolution()), e.boundary(to), step
}

// maxReads bounds the store windows one InstantJSON or RangeJSON request
// may read. A query's length does not bound its work: a few kilobytes of
// summed day-long windows, evaluated at every minute of a day, read
// hundreds of millions of windows. The heaviest query of the repository's
// own mixes reads under a million.
const maxReads = 1 << 24

// checkReads rejects a request that evaluates x at n boundaries if that
// could read more than maxReads windows. Recording rules are written by
// the operator and are not bounded.
func (e *Engine) checkReads(x Expr, n int64) error {
	if e == nil || e.Store.Resolution() <= 0 {
		return nil
	}
	if r := float64(n) * reads(x, e.End(), e.Store.Resolution()); r > maxReads {
		return fmt.Errorf("mql: query may read %.0f store windows, over the per-request bound of %d", r, maxReads)
	}
	return nil
}

// reads bounds the windows one evaluation of x at a boundary up to end
// reads from a store of resolution res: a selector's cumulative sum
// covers [0, end), a range call its window (one more for a window that
// straddles a boundary), a number nothing.
func reads(x Expr, end, res time.Duration) float64 {
	switch x := x.(type) {
	case Selector:
		return float64(end/res + 1)
	case Call:
		return float64(min(x.Window, end)/res + 1)
	case Unary:
		return reads(x.X, end, res)
	case Binary:
		return reads(x.L, end, res) + reads(x.R, end, res)
	}
	return 0
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

// appendJSONFloat appends v as a JSON number: shortest round-trip form,
// with the non-finite values (which no mql expression should produce —
// division by zero is defined as 0) clamped to 0 so the output is always
// valid JSON.
func appendJSONFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, '0')
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// InstantJSON parses and evaluates q as Instant does and renders the
// result as one canonical JSON object, whose at_us is the boundary it was
// evaluated at. The rendering is hand-built and byte-stable: the CLI's
// -query output and the live /query endpoint share it, so a served
// response compares byte for byte with what cmd/lambdatrim's
// TestDeterminism/query checks.
func (e *Engine) InstantJSON(q string, at time.Duration) (string, error) {
	x, err := Parse(q)
	if err != nil {
		return "", err
	}
	if err := e.checkReads(x, 1); err != nil {
		return "", err
	}
	at = e.boundary(at)
	v := e.Instant(x, at)
	var b strings.Builder
	b.WriteString(`{"query":`)
	b.WriteString(strconv.Quote(q))
	b.WriteString(`,"type":"instant","at_us":`)
	b.WriteString(strconv.FormatInt(at.Microseconds(), 10))
	b.WriteString(`,"value":`)
	b.Write(appendJSONFloat(nil, v))
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
	first, last, spacing := e.rangeBounds(from, to, step)
	if last >= first {
		if err := e.checkReads(x, int64((last-first)/spacing)+1); err != nil {
			return "", err
		}
	}
	pts := e.Range(x, from, to, step)
	var b strings.Builder
	// The header takes about 70 bytes besides the query, and a point about
	// 45: `{"t_us":86100000000,"v":3.8912345678901234e-06},`.
	b.Grow(len(q) + 80 + 48*len(pts))
	b.WriteString(`{"query":`)
	b.WriteString(strconv.Quote(q))
	// Report the spacing the points actually have, not the request.
	b.WriteString(`,"type":"range","step_us":`)
	b.WriteString(strconv.FormatInt(spacing.Microseconds(), 10))
	b.WriteString(`,"points":[`)
	var num [32]byte
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"t_us":`)
		b.Write(strconv.AppendInt(num[:0], p.T.Microseconds(), 10))
		b.WriteString(`,"v":`)
		b.Write(appendJSONFloat(num[:0], p.V))
		b.WriteByte('}')
	}
	b.WriteString("]}")
	return b.String(), nil
}
