package debloat

import (
	"strings"
	"testing"

	"repro/internal/appcorpus"
	"repro/internal/appspec"
	"repro/internal/pyruntime"
)

// TestFuzzFindsAdvancedModeDivergence: the corpus Table-4 apps have a
// rarely-used branch that dynamically accesses an attribute DD removes
// (invisible to static protection). Differential fuzzing with the
// source-string dictionary must surface the divergence.
func TestFuzzFindsAdvancedModeDivergence(t *testing.T) {
	app := appcorpus.MustBuild("dna-visualization")
	res, err := Run(app, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	report, err := Fuzz(res.Original, res.App, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Trials == 0 {
		t.Fatal("fuzzer executed no trials")
	}
	found := false
	for _, tc := range report.Failing {
		if v, ok := tc.Event["mode"]; ok && v == "advanced" {
			found = true
		}
	}
	if !found {
		t.Errorf("fuzzer missed the advanced-mode divergence; failing=%d", len(report.Failing))
	}
}

// TestFuzzCleanOnEquivalentApps: fuzzing an app against itself never
// reports divergences.
func TestFuzzCleanOnEquivalentApps(t *testing.T) {
	app := appcorpus.MustBuild("markdown")
	report, err := Fuzz(app, app.Clone(), 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failing) != 0 {
		t.Errorf("self-fuzz reported %d divergences", len(report.Failing))
	}
}

// TestRerunRepairsFallbackInput implements the paper's §5.4 loop: fallback
// (or fuzzing) finds a failing input → add it to the oracle → rerun λ-trim
// → the new optimized app handles the input natively.
func TestRerunRepairsFallbackInput(t *testing.T) {
	app := appcorpus.MustBuild("dna-visualization")
	first, err := Run(app, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// The advanced-mode input diverges on the first optimized app.
	advanced := appspec.TestCase{Name: "advanced", Event: map[string]any{
		"dna": "ATGC", "mode": "advanced",
	}}
	if executeForFuzz(first.Original, advanced.Event, nil) == executeForFuzz(first.App, advanced.Event, nil) {
		t.Fatal("expected the advanced input to diverge before the rerun")
	}

	second, err := Rerun(first, []appspec.TestCase{advanced}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if executeForFuzz(second.Original, advanced.Event, nil) != executeForFuzz(second.App, advanced.Event, nil) {
		t.Error("rerun did not repair the advanced input")
	}

	// The repaired image must retain the dynamically-needed attribute.
	src, _ := second.App.Image.Read("site-packages/squiggle/__init__.py")
	if !strings.Contains(src, "pad_0000") {
		t.Error("rerun removed the attribute the new oracle case needs")
	}

	// And the rerun must still debloat: other redundant attributes stay
	// removed.
	if second.TotalRemoved() == 0 {
		t.Error("rerun removed nothing")
	}
}

// TestRerunFastPathReusesPriorReductions: with an unchanged oracle, every
// previously reduced module revalidates instead of re-running DD, so the
// rerun needs far fewer oracle executions.
func TestRerunFastPathReusesPriorReductions(t *testing.T) {
	app := appcorpus.MustBuild("lightgbm")
	first, err := Run(app, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	second, err := Rerun(first, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if second.OracleRuns*3 > first.OracleRuns {
		t.Errorf("rerun used %d oracle runs vs %d initially — fast path not engaged",
			second.OracleRuns, first.OracleRuns)
	}
	if second.TotalRemoved() < first.TotalRemoved() {
		t.Errorf("rerun lost reductions: %d vs %d", second.TotalRemoved(), first.TotalRemoved())
	}
}

// TestPreviousReductionParsesThroughRunCache: a previous reduction is the
// run's cached parse of the previous image's file, so when Rerun accepts it
// again the final verification finds the same text already parsed.
func TestPreviousReductionParsesThroughRunCache(t *testing.T) {
	first, err := Run(appcorpus.MustBuild("markdown"), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := &runner{astCache: pyruntime.NewASTCache()}
	reduced := 0
	for _, m := range first.Modules {
		if len(m.Removed) == 0 {
			continue
		}
		reduced++
		got, ok := previousReduction(run, first, m.Module)
		if !ok {
			t.Fatalf("%s: no previous reduction", m.Module)
		}
		path, src, _ := moduleFile(first.App, m.Module)
		want, err := run.astCache.Parse(path, m.Module, src)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: previousReduction parsed outside the run's cache", m.Module)
		}
	}
	if reduced == 0 {
		t.Fatal("the first run reduced no module")
	}
}
