// Package query is mql, a small PromQL-subset language over the monitor
// TSDB: instant and range queries against monitor.Store series, with
// selectors by metric family and label matchers, range aggregations over
// window scans, binary arithmetic for ratios, and recording rules that the
// fleet replay evaluates incrementally per shard.
//
// The grammar, informally:
//
//	expr      = term { ("+" | "-") term }
//	term      = unary { ("*" | "/") unary }
//	unary     = "-" unary | primary
//	primary   = number | call | selector | "(" expr ")"
//	call      = fn "(" selector "[" duration "]" ")"
//	selector  = (ident | string) [ "{" ident "=" string { "," ... } "}" ]
//	fn        = "sum" | "count" | "max" | "mean" | "rate"
//	          | "p50" | "p90" | "p95" | "p99"
//
// Identifiers are [a-zA-Z_][a-zA-Z0-9_.:]* (dots for the monitor's series
// names, colons for Prometheus-style rule names); series whose names fall
// outside that set are written as double-quoted strings (no escapes).
// Durations use Go syntax ("5m", "1h30m"). Label matchers are equality
// only, and compose with the family through the monitor package's
// canonical labeled-series encoding, so `req.total{function="f1"}` selects
// exactly the series the fleet recorded under that label set.
//
// Evaluation semantics (see DESIGN.md §14): everything evaluates at a
// window boundary T. A bare selector is the cumulative sum over [0, T); a
// range call reads the trailing window [max(0, T−d), T). rate is
// sum/covered-seconds, mean is sum/count, and the pNN functions are
// nearest-rank quantiles over the per-window means of non-empty windows
// (quantile_over_time style — the store keeps rollups, not raw samples).
// Division by zero yields 0, keeping JSON output total.
//
// Expr.String() renders a canonical, fully parenthesized form; parsing
// that form yields the same tree, which is what FuzzParseQuery pins.
// Parse bounds how deeply a tree nests (maxDepth), so String, eval and
// every other walk over a parsed tree recurse a bounded number of times.
package query

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/monitor"
)

// Expr is a parsed mql expression. Implementations are the AST: Number,
// Selector, Call, Unary, Binary.
type Expr interface {
	// String renders the canonical form (fully parenthesized, labels in
	// canonical order); Parse(x.String()) reproduces the tree.
	String() string
	// eval computes the expression at boundary time `at`, reading the
	// store's windows through src. It is the one definition of a value:
	// an instant query and a recording rule read through point, a range
	// query through a sweep (see source.go).
	eval(src source, at time.Duration) float64
}

// Number is a literal scalar.
type Number float64

func (n Number) String() string { return strconv.FormatFloat(float64(n), 'g', -1, 64) }

func (n Number) eval(source, time.Duration) float64 { return float64(n) }

// Selector names one store series by its canonical (label-encoded) name.
// At boundary T it evaluates to the cumulative sum over [0, T).
type Selector struct {
	Name string
}

// isIdent reports whether s lexes as a single mql identifier.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case i > 0 && (c >= '0' && c <= '9' || c == '.' || c == ':'):
		default:
			return false
		}
	}
	return true
}

func (s Selector) String() string {
	fam, labels := monitor.SplitSeries(s.Name)
	var b strings.Builder
	if isIdent(fam) {
		b.WriteString(fam)
	} else {
		b.WriteByte('"')
		b.WriteString(fam)
		b.WriteByte('"')
	}
	if len(labels) > 0 {
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
	}
	return b.String()
}

func (s Selector) eval(src source, at time.Duration) float64 {
	return src.rollup(s.Name, 0, at).Sum
}

// Call is a range aggregation: Fn over the selector's trailing Window.
type Call struct {
	Fn     string
	Sel    Selector
	Window time.Duration
}

func (c Call) String() string {
	return c.Fn + "(" + c.Sel.String() + "[" + c.Window.String() + "])"
}

func (c Call) eval(src source, at time.Duration) float64 {
	from := at - c.Window
	if from < 0 {
		from = 0
	}
	switch c.Fn {
	case "sum":
		return src.rollup(c.Sel.Name, from, at).Sum
	case "count":
		return float64(src.rollup(c.Sel.Name, from, at).Count)
	case "max":
		return src.rollup(c.Sel.Name, from, at).Max
	case "mean":
		return src.rollup(c.Sel.Name, from, at).Mean()
	case "rate":
		secs := (at - from).Seconds()
		if secs <= 0 {
			return 0
		}
		return src.rollup(c.Sel.Name, from, at).Sum / secs
	default: // pNN quantiles over per-window means
		q, ok := quantiles[c.Fn]
		if !ok {
			return 0 // unreachable: the parser rejects unknown functions
		}
		return nearestRank(src.means(c.Sel.Name, from, at), q)
	}
}

var quantiles = map[string]float64{"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99}

// nearestRank is the nearest-rank quantile of vs (0 when empty). vs is
// sorted in place.
func nearestRank(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	rank := int(math.Ceil(q * float64(len(vs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(vs) {
		rank = len(vs)
	}
	return vs[rank-1]
}

// Unary is arithmetic negation.
type Unary struct {
	X Expr
}

func (u Unary) String() string { return canonical(u) }

func (u Unary) eval(src source, at time.Duration) float64 { return -u.X.eval(src, at) }

// Binary is one arithmetic operation ('+', '-', '*', '/').
type Binary struct {
	Op   byte
	L, R Expr
}

func (b Binary) String() string { return canonical(b) }

// canonical renders an operation's canonical form into one buffer. Built
// by concatenation, a tree d deep would copy its text d times.
func canonical(x Expr) string {
	var b strings.Builder
	writeCanonical(&b, x)
	return b.String()
}

func writeCanonical(b *strings.Builder, x Expr) {
	switch x := x.(type) {
	case Unary:
		b.WriteString("(-")
		writeCanonical(b, x.X)
		b.WriteByte(')')
	case Binary:
		b.WriteByte('(')
		writeCanonical(b, x.L)
		b.WriteByte(' ')
		b.WriteByte(x.Op)
		b.WriteByte(' ')
		writeCanonical(b, x.R)
		b.WriteByte(')')
	default:
		b.WriteString(x.String())
	}
}

func (b Binary) eval(src source, at time.Duration) float64 {
	l, r := b.L.eval(src, at), b.R.eval(src, at)
	switch b.Op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	default: // '/'
		if r == 0 {
			return 0
		}
		return l / r
	}
}
