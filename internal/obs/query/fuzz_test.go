package query

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs/monitor"
)

// FuzzParseQuery pins the parser's hard guarantees: it never panics on
// arbitrary input, an error stays under maxErrLen bytes whatever the
// input's length, and accepted input has a stable canonical form —
// Parse(x.String()) succeeds and re-renders to the same string (the
// fixpoint the grammar's quoting/label-canonicalization rules exist for).
// Accepted expressions are also evaluated to check the engine is total.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"req.total",
		`req.total{function="f1",arm="debloated"}`,
		`"slo.fleet-cold-fraction.bad"`,
		"sum(cost.usd[5m])",
		"rate(req.error[1h30m])",
		"p95(req.total[30m])",
		"cost.usd / req.total",
		"(a + b) * -c - 2.5e-3",
		"fleet:cost_usd:rate1h = x", // not an expression: must error, not panic
		"sum(req.total[5m]) / count(req.total[5m])",
		`x{k="v"} + y{}`,
		"((((1))))",
		"-(-(-1))",
		// The deepest canonical form: a chain of negations maxDepth deep
		// opens maxDepth-1 parentheses and as many negations.
		strings.Repeat("(-", maxDepth-1) + "1" + strings.Repeat(")", maxDepth-1),
		// Trailing input an error once quoted in full, twice over.
		"1 " + strings.Repeat("\x01", 100),
	} {
		f.Add(seed)
	}
	st := monitor.NewStore(time.Minute, 16)
	st.Record("req.total", time.Second, 1)
	e := &Engine{Store: st, Latest: time.Second}
	f.Fuzz(func(t *testing.T, q string) {
		x, err := Parse(q)
		if err != nil {
			if len(err.Error()) >= maxErrLen {
				t.Fatalf("%d-byte error for a %d-byte query: %.120s", len(err.Error()), len(q), err)
			}
			return
		}
		once := x.String()
		y, err := Parse(once)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", once, q, err)
		}
		if twice := y.String(); twice != once {
			t.Fatalf("canonical form not a fixpoint: %q → %q → %q", q, once, twice)
		}
		e.Instant(x, -1) // must not panic
	})
}
