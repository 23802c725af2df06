package query

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, q string) Expr {
	t.Helper()
	x, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return x
}

func TestParseShapes(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical String() form
	}{
		{"req.total", "req.total"},
		{"  req.total  ", "req.total"},
		{"42", "42"},
		{"4.5e3", "4500"},
		{"-3", "(-3)"},
		{`req.total{function="f1"}`, `req.total{function="f1"}`},
		{`req.total{function="f1",arm="debloated"}`, `req.total{arm="debloated",function="f1"}`},
		{`"slo.fleet-cold-fraction.bad"`, `"slo.fleet-cold-fraction.bad"`},
		{`"slo.x.bad"{arm="a"}`, `slo.x.bad{arm="a"}`}, // dots are ident-safe: canonical form drops the quotes
		{"sum(cost.usd[5m])", "sum(cost.usd[5m0s])"},
		{"rate(req.error[1h])", "rate(req.error[1h0m0s])"},
		{"p95(req.total[30m])", "p95(req.total[30m0s])"},
		{"cost.usd / req.total", "(cost.usd / req.total)"},
		{"a + b * c", "(a + (b * c))"},
		{"(a + b) * c", "((a + b) * c)"},
		{"a - b - c", "((a - b) - c)"},
		{"-a * b", "((-a) * b)"},
		{"fleet:cost_usd:rate1h", "fleet:cost_usd:rate1h"},
		{`sum(req.total{function="f"}[2m])`, `sum(req.total{function="f"}[2m0s])`},
		{"max(req.total[1m])/mean(req.total[1m])", "(max(req.total[1m0s]) / mean(req.total[1m0s]))"},
		{`req.total{}`, "req.total"},
	}
	for _, c := range cases {
		x := mustParse(t, c.in)
		if got := x.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseCanonicalRoundTrip(t *testing.T) {
	for _, q := range []string{
		"req.total",
		`req.total{arm="debloated",function="f1"}`,
		"sum(cost.usd[5m])",
		"(rate(cost.usd[1h]) / rate(req.total[1h]))",
		"((-3) + (a * 2))",
		`"weird name!"{x="1"}`,
	} {
		x := mustParse(t, q)
		once := x.String()
		twice := mustParse(t, once).String()
		if once != twice {
			t.Errorf("canonical form not stable: %q → %q → %q", q, once, twice)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		"",
		"   ",
		"req.total[5m]",       // bare range selector: windows go through aggregations
		"sum(req.total)",      // aggregation without a window
		"frob(req.total[1m])", // unknown function
		"sum(req.total[0s])",  // non-positive window
		"sum(req.total[xyz])",
		"sum(req.total[5m)",
		"a +",
		"(a",
		"a)",
		"1.2.3",
		`req.total{function}`,
		`req.total{function=}`,
		`req.total{function=f}`,  // unquoted label value
		`req.total{function="f"`, // unterminated block
		`"unterminated`,
		`"no{braces}"`, // braces in quoted family
		`x{k="a,b"}`,   // comma in label value
		`x{k="a{b"}`,   // brace in label value
		"a $ b",
		"req total",
	} {
		if x, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) = %v, want error", q, x)
		}
	}
}

func TestParseWindow(t *testing.T) {
	x := mustParse(t, "sum(cost.usd[1h30m])")
	c, ok := x.(Call)
	if !ok || c.Window != 90*time.Minute {
		t.Fatalf("parsed %#v, want 90m window call", x)
	}
	if c.Sel.Name != "cost.usd" {
		t.Fatalf("selector = %q", c.Sel.Name)
	}
}

func TestParseErrorMentionsOffset(t *testing.T) {
	_, err := Parse("sum(req.total[5m]) + frob(x[1m])")
	if err == nil || !strings.Contains(err.Error(), "frob") {
		t.Fatalf("err = %v, want mention of the unknown function", err)
	}
}

// maxErrLen bounds a parse error's length whatever the query's.
const maxErrLen = 256

// TestParseErrorsBounded: an error names its offset and the query's length
// and quotes a bounded excerpt of user text, however long the text is.
// Each error used to quote the whole query, and some quoted the offending
// text or the rest of the query once more: 200 000 bytes of 0x01 gave an
// 800 042-byte error, and "1 " before them a 1 600 040-byte one.
func TestParseErrorsBounded(t *testing.T) {
	const n = 100_000
	ctl := strings.Repeat("\x01", 200_000)
	for _, c := range []struct {
		name, q string
		at      int
	}{
		{"control bytes", ctl, 0},
		{"trailing control bytes", "1 " + ctl, 2},
		{"unknown function", strings.Repeat("f", n) + "(x[1m])", n},
		{"number", strings.Repeat("1.", n/2), n},
		{"window", "sum(x[" + strings.Repeat("z", n) + "])", len("sum(x[")},
		{"braced series name", `"{` + strings.Repeat("a", n) + `"`, n + 3},
		{"label value", `x{k="` + strings.Repeat(",", n) + `"}`, n + 6},
		{"unterminated string", `"` + strings.Repeat("a", n), n + 1},
		{"multi-byte runes", strings.Repeat("é", n), 0},
	} {
		_, err := Parse(c.q)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		msg := err.Error()
		if len(msg) >= maxErrLen {
			t.Errorf("%s: %d-byte error for a %d-byte query: %.120s", c.name, len(msg), len(c.q), msg)
		}
		if want := fmt.Sprintf("at offset %d of a %d-byte query", c.at, len(c.q)); !strings.Contains(msg, want) {
			t.Errorf("%s: error %q does not say %q", c.name, msg, want)
		}
	}
	// Short text is quoted whole, as before.
	if _, err := Parse("bad((x"); err == nil || !strings.Contains(err.Error(), `mql: unknown function "bad"`) {
		t.Errorf("err = %v, want the unknown function quoted whole", err)
	}
}

// TestParseNestingBound: Parse accepts a tree exactly maxDepth deep and
// maxParens open parentheses, and rejects one level more of each with an
// error naming the bound, however the nesting is written. Every accepted
// tree's canonical form parses again, the deepest among them.
func TestParseNestingBound(t *testing.T) {
	parens := func(n int) string { return strings.Repeat("(", n) + "1" + strings.Repeat(")", n) }
	negations := func(n int) string { return strings.Repeat("-", n) + "1" }
	chain := func(n int) string { return strings.TrimSuffix(strings.Repeat("a + ", n), " + ") }
	// The canonical form of n negations: n parentheses and n minus signs.
	negParens := func(n int) string { return strings.Repeat("(-", n) + "1" + strings.Repeat(")", n) }
	for _, c := range []struct {
		name     string
		at, past string
		bound    int
	}{
		{"parentheses", parens(maxParens), parens(maxParens + 1), maxParens},
		{"negations", negations(maxDepth - 1), negations(maxDepth), maxDepth},
		{"operator chain", chain(maxDepth), chain(maxDepth + 1), maxDepth},
		{"negated parentheses", negParens(maxDepth - 1), negParens(maxDepth), maxParens},
	} {
		x, err := Parse(c.at)
		if err != nil {
			t.Errorf("%s at the bound: %v", c.name, err)
		} else if y, err := Parse(x.String()); err != nil || y.String() != x.String() {
			t.Errorf("%s at the bound: canonical form does not re-parse to itself: %v", c.name, err)
		}
		if _, err := Parse(c.past); err == nil || !strings.Contains(err.Error(), strconv.Itoa(c.bound)) {
			t.Errorf("%s one past the bound: err = %.80v, want one naming %d", c.name, err, c.bound)
		}
	}
}
