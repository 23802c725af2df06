package debloat

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// A traced pipeline run must cover every stage as spans on the virtual
// timeline, with DD rounds nested under their module spans, and its
// metrics must agree with the result's own accounting.
func TestTracedPipelineSpansAndMetrics(t *testing.T) {
	app := torchExampleApp()
	tr := obs.New()
	cfg := DefaultConfig()
	cfg.Tracer = tr
	res, err := Run(app, cfg)
	if err != nil {
		t.Fatal(err)
	}

	roots := tr.Roots()
	if len(roots) != 1 || !strings.HasPrefix(roots[0].Name, "debloat ") {
		t.Fatalf("want a single pipeline root, got %v", roots)
	}
	root := roots[0]
	if root.End <= root.Start {
		t.Errorf("pipeline root span is empty: [%v, %v]", root.Start, root.End)
	}

	stages := map[string]int{}
	rounds, oracles, modules := 0, 0, 0
	tr.Walk(func(s *obs.Span, depth int) {
		switch s.Cat {
		case "pipeline", "profiler":
			stages[s.Name]++
		case "dd":
			switch s.Name {
			case "round":
				rounds++
			case "oracle":
				oracles++
			}
		case "debloat":
			if strings.HasPrefix(s.Name, "module ") {
				modules++
			}
		}
	})
	for _, want := range []string{"analyze", "golden", "materialize", "verify"} {
		if stages[want] != 1 {
			t.Errorf("stage %q spans = %d, want 1", want, stages[want])
		}
	}
	if stages["profile "+app.Entry] != 1 {
		t.Errorf("missing profile span, stages = %v", stages)
	}
	if modules != len(res.Modules) {
		t.Errorf("module spans = %d, want %d", modules, len(res.Modules))
	}
	if rounds == 0 {
		t.Error("no DD round spans recorded")
	}

	// DD records one span per executed (non-memoized) oracle call;
	// cross-check against the dd.Stats the pipeline reports.
	wantTests := 0
	for _, m := range res.Modules {
		wantTests += m.DD.Tests
	}
	if oracles != wantTests {
		t.Errorf("oracle spans = %d, want %d (sum of DD.Tests)", oracles, wantTests)
	}

	reg := tr.Metrics()
	if got := reg.Counter("debloat.oracle_runs"); got != int64(res.OracleRuns) {
		t.Errorf("debloat.oracle_runs = %d, want %d", got, res.OracleRuns)
	}
	if got := reg.Counter("debloat.removed_attrs"); got != int64(res.TotalRemoved()) {
		t.Errorf("debloat.removed_attrs = %d, want %d", got, res.TotalRemoved())
	}
	if got := reg.Counter("dd.tests"); got != int64(wantTests) {
		t.Errorf("dd.tests = %d, want %d", got, wantTests)
	}
	if h := reg.Histogram("debloat.oracle.seconds"); h == nil || h.Count() != uint64(res.OracleRuns) {
		t.Errorf("debloat.oracle.seconds histogram count != %d", res.OracleRuns)
	}

	// Spans never run backwards, and the root bounds every descendant.
	tr.Walk(func(s *obs.Span, depth int) {
		if s.End < s.Start {
			t.Errorf("span %q runs backwards: [%v, %v]", s.Name, s.Start, s.End)
		}
	})
}

// Tracing must not perturb the pipeline: identical results with and
// without a tracer.
func TestTracedPipelineMatchesUntraced(t *testing.T) {
	base, err := Run(torchExampleApp(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tracer = obs.New()
	res, err := Run(torchExampleApp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRemoved() != base.TotalRemoved() {
		t.Errorf("removed %d attrs traced, %d untraced", res.TotalRemoved(), base.TotalRemoved())
	}
	if res.DebloatTime != base.DebloatTime {
		t.Errorf("tracing changed DebloatTime: %v vs %v", res.DebloatTime, base.DebloatTime)
	}
}
