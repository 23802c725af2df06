package query

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs/monitor"
)

// Recording rules.
//
// A rule `name = expr` materializes expr as a new store series: during
// fleet replay each shard evaluates the rule at every window boundary its
// block reached and records the value into its private store, and the
// shards merge in block-index order like every other fleet artifact. For
// the merged series to mean anything — and to be byte-identical at any
// worker count — the rule body must distribute over the shard partition:
//
//	expr(merged store) == Σ over blocks of expr(block store)
//
// which holds exactly for the linear fragment of mql: selectors, sum/
// count/rate range calls (rate divides by a window length that is the same
// in every shard), sums and differences of linear terms, scalar multiples,
// and division by a constant. It does not hold for max, mean, quantiles,
// or ratios of linears (a sum of per-shard ratios is not the global
// ratio), so ParseRules rejects those bodies up front — ad-hoc queries,
// which run after the merge, still have the full language. This is the
// same aggregation-pushdown restriction streaming systems place on
// pre-computed standing queries.

// Rule is one parsed, validated recording rule.
type Rule struct {
	// Name is the series the rule records into (Prometheus convention:
	// colon-separated, e.g. "fleet:cost_usd:rate1h").
	Name string
	// Expr is the rule body, restricted to the linear fragment.
	Expr Expr
}

// String renders the canonical rule statement.
func (r Rule) String() string { return r.Name + " = " + r.Expr.String() }

// ParseRules parses a rule set: statements separated by ';' or newlines,
// '#' starting a comment line, each statement `name = expr`. Bodies are
// validated to the distributive fragment (see the package comment above)
// and rule names must be fresh identifiers; later rules may reference
// earlier ones.
func ParseRules(src string) ([]Rule, error) {
	var rules []Rule
	seen := make(map[string]bool)
	for _, stmt := range strings.FieldsFunc(src, func(r rune) bool { return r == ';' || r == '\n' }) {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" || strings.HasPrefix(stmt, "#") {
			continue
		}
		name, body, ok := strings.Cut(stmt, "=")
		name = strings.TrimSpace(name)
		if !ok || !isIdent(name) {
			return nil, fmt.Errorf("mql: bad rule statement %q (want `name = expr`)", stmt)
		}
		if seen[name] {
			return nil, fmt.Errorf("mql: duplicate rule %q", name)
		}
		x, err := Parse(body)
		if err != nil {
			return nil, fmt.Errorf("rule %q: %w", name, err)
		}
		if classify(x) != classLinear {
			return nil, fmt.Errorf("mql: rule %q body %s is not distributive over shards "+
				"(allowed: selectors, sum/count/rate, +, -, scalar *, / by a constant)", name, x)
		}
		seen[name] = true
		rules = append(rules, Rule{Name: name, Expr: x})
	}
	return rules, nil
}

// classify sorts an expression into the merge algebra: classConst values
// are shard-independent scalars, classLinear values distribute over the
// shard partition, classOther values do neither.
type class int

const (
	classConst class = iota
	classLinear
	classOther
)

func classify(x Expr) class {
	switch v := x.(type) {
	case Number:
		return classConst
	case Selector:
		return classLinear
	case Call:
		switch v.Fn {
		case "sum", "count", "rate":
			return classLinear
		default: // max, mean, quantiles: not distributive
			return classOther
		}
	case Unary:
		return classify(v.X)
	case Binary:
		l, r := classify(v.L), classify(v.R)
		switch v.Op {
		case '+', '-':
			if l == classLinear && r == classLinear {
				return classLinear
			}
			if l == classConst && r == classConst {
				return classConst
			}
			// linear ± constant would re-add the constant per shard
		case '*':
			if l == classConst && r == classConst {
				return classConst
			}
			if l == classLinear && r == classConst || l == classConst && r == classLinear {
				return classLinear
			}
		case '/':
			if r == classConst {
				if l == classLinear {
					return classLinear
				}
				if l == classConst {
					return classConst
				}
			}
		}
		return classOther
	}
	return classOther
}

// EvalRules sweeps every window boundary from the first through the one
// closing the window holding `latest`, evaluating each rule in order and
// recording nonzero values into the store under the rule's name, stamped
// inside the window the boundary closes. Rules see earlier rules' output
// for preceding windows (an evaluation at T reads windows strictly before
// T), so chained rules are well defined and evaluate identically in every
// shard. The fleet calls this once per block after the block's functions
// replay; Monitor users can call it post-Finish with Monitor latest time.
func EvalRules(st *monitor.Store, rules []Rule, latest time.Duration) {
	if st == nil || len(rules) == 0 {
		return
	}
	res := st.Resolution()
	if res <= 0 {
		return
	}
	if latest < 0 {
		latest = 0
	}
	end := (latest/res + 1) * res
	for T := res; T <= end; T += res {
		for _, r := range rules {
			if v := r.Expr.eval(point{st}, T); v != 0 {
				st.Record(r.Name, T-res, v)
			}
		}
	}
}
