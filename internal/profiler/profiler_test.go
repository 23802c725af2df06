package profiler

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/appcorpus"
	"repro/internal/pyparser"
	"repro/internal/pyruntime"
	"repro/internal/vfs"
)

// image builds a deployment image with an entry importing two libraries of
// very different cost profiles plus a nested submodule.
func image() *vfs.FS {
	fs := vfs.New()
	fs.Write("handler.py", `
import slowlib
import fastlib

def handler(event, context):
    return None
`)
	fs.Write("site-packages/slowlib/__init__.py", `
load_native(500, 80)
from slowlib.sub import helper
def top():
    return 1
`)
	fs.Write("site-packages/slowlib/sub/__init__.py", `
load_native(120, 10)
def helper():
    return 2
`)
	fs.Write("site-packages/fastlib/__init__.py", `
load_native(10, 2)
def quick():
    return 3
`)
	return fs
}

func TestProfileMeasuresMarginals(t *testing.T) {
	prof, err := Run(image(), "handler", Options{Scoring: Combined})
	if err != nil {
		t.Fatal(err)
	}
	slow, ok := prof.Lookup("slowlib")
	if !ok {
		t.Fatal("slowlib not profiled")
	}
	fast, _ := prof.Lookup("fastlib")
	sub, _ := prof.Lookup("slowlib.sub")

	// Marginals are inclusive of submodules, per the paper's definition.
	if slow.ImportTime < 620*time.Millisecond {
		t.Errorf("slowlib marginal %v should include its submodule (≥620ms)", slow.ImportTime)
	}
	if sub.ImportTime < 120*time.Millisecond || sub.ImportTime > 200*time.Millisecond {
		t.Errorf("slowlib.sub marginal = %v, want ≈120ms", sub.ImportTime)
	}
	if fast.ImportTime > 50*time.Millisecond {
		t.Errorf("fastlib marginal = %v, want ≈10ms", fast.ImportTime)
	}
	if slow.MemoryMB < 89 || slow.MemoryMB > 95 {
		t.Errorf("slowlib memory = %.1f, want ≈90MB", slow.MemoryMB)
	}

	// Totals cover the whole initialization.
	if prof.TotalTime < slow.ImportTime {
		t.Errorf("total %v < slowlib marginal %v", prof.TotalTime, slow.ImportTime)
	}
	if prof.TotalMemMB < slow.MemoryMB {
		t.Errorf("total mem %.1f < slowlib mem %.1f", prof.TotalMemMB, slow.MemoryMB)
	}
}

func TestEntryModuleExcluded(t *testing.T) {
	prof, err := Run(image(), "handler", Options{Scoring: Combined})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prof.Lookup("handler"); ok {
		t.Error("entry module must not be a debloating candidate")
	}
}

func TestCombinedRankingOrder(t *testing.T) {
	prof, err := Run(image(), "handler", Options{Scoring: Combined})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Modules[0].Name != "slowlib" {
		t.Errorf("top module = %s, want slowlib", prof.Modules[0].Name)
	}
	// Scores are non-increasing.
	for i := 1; i < len(prof.Modules); i++ {
		if prof.Modules[i].Score > prof.Modules[i-1].Score {
			t.Errorf("ranking not sorted at %d", i)
		}
	}
}

func TestTopK(t *testing.T) {
	prof, err := Run(image(), "handler", Options{Scoring: Combined})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(prof.TopK(2)); got != 2 {
		t.Errorf("TopK(2) = %d entries", got)
	}
	if got := len(prof.TopK(100)); got != len(prof.Modules) {
		t.Errorf("TopK(100) = %d entries, want %d", got, len(prof.Modules))
	}
}

func TestScoringMethodsDiffer(t *testing.T) {
	// Build an image where time-only and memory-only rankings disagree:
	// one module is slow but light, the other fast but heavy.
	fs := vfs.New()
	fs.Write("handler.py", "import slowlight\nimport fastheavy\n\ndef handler(event, context):\n    return None\n")
	fs.Write("site-packages/slowlight/__init__.py", "load_native(400, 1)\n")
	fs.Write("site-packages/fastheavy/__init__.py", "load_native(5, 200)\n")

	timeProf, err := Run(fs, "handler", Options{Scoring: TimeOnly})
	if err != nil {
		t.Fatal(err)
	}
	memProf, err := Run(fs, "handler", Options{Scoring: MemoryOnly})
	if err != nil {
		t.Fatal(err)
	}
	if timeProf.Modules[0].Name != "slowlight" {
		t.Errorf("time-only top = %s", timeProf.Modules[0].Name)
	}
	if memProf.Modules[0].Name != "fastheavy" {
		t.Errorf("memory-only top = %s", memProf.Modules[0].Name)
	}
}

func TestRandomScoringDeterministicBySeed(t *testing.T) {
	a, err := Run(image(), "handler", Options{Scoring: Random, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(image(), "handler", Options{Scoring: Random, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(image(), "handler", Options{Scoring: Random, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Modules {
		if a.Modules[i].Name != b.Modules[i].Name {
			t.Fatal("same seed produced different rankings")
		}
	}
	same := true
	for i := range a.Modules {
		if a.Modules[i].Name != c.Modules[i].Name {
			same = false
		}
	}
	if same && len(a.Modules) > 2 {
		t.Log("warning: different seeds produced identical ranking (possible but unlikely)")
	}
}

// TestRunParsesThroughCache: a profile taken with a parse cache equals one
// taken without, and afterwards every module it imported, the entry
// included, is in the cache: the first lookup of each module's file
// allocates less than a tenth of what parsing its source does.
func TestRunParsesThroughCache(t *testing.T) {
	app := appcorpus.MustBuild("markdown")
	want, err := Run(app.Image, app.Entry, Options{Scoring: Combined})
	if err != nil {
		t.Fatal(err)
	}
	asts := pyruntime.NewASTCache()
	got, err := Run(app.Image, app.Entry, Options{Scoring: Combined, ASTCache: asts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("profile with a cache = %+v, without = %+v", got, want)
	}
	names := []string{app.Entry}
	for _, m := range got.Modules {
		names = append(names, m.Name)
	}
	for _, name := range names {
		path, src, ok := pyruntime.ModuleFile(app.Image, name)
		if !ok {
			t.Fatalf("%s: no file", name)
		}
		// AllocsPerRun's warm-up call would fill the cache itself, so it
		// does nothing and the one measured call is the first lookup.
		warm := true
		lookup := testing.AllocsPerRun(1, func() {
			if warm {
				warm = false
				return
			}
			if _, err := asts.Parse(path, name, src); err != nil {
				t.Fatal(err)
			}
		})
		parse := testing.AllocsPerRun(1, func() {
			if _, err := pyparser.Parse(name, src); err != nil {
				t.Fatal(err)
			}
		})
		if lookup*10 >= parse {
			t.Errorf("%s: first cache lookup made %.0f allocations, a parse %.0f: the profile did not parse through the cache", name, lookup, parse)
		}
	}
}

func TestRunFailsOnBrokenInit(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", "import missing_module\n")
	if _, err := Run(fs, "handler", Options{}); err == nil {
		t.Error("expected error for failing initialization")
	}
}

// TestMarginalMonetaryCostFormula pins Eq. 2 to its algebraic expansion
// tM + mT − tm, and the Combined ranking score to Eq. 2.
func TestMarginalMonetaryCostFormula(t *testing.T) {
	T := 4 * time.Second
	M := 100.0
	tt := 1 * time.Second
	m := 25.0
	got := MarginalMonetaryCost(tt, T, m, M)
	want := tt.Seconds()*M + m*T.Seconds() - tt.Seconds()*m
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Eq.2 = %f, expansion = %f", got, want)
	}
	mp := ModuleProfile{ImportTime: tt, MemoryMB: m}
	if s := score(Combined, mp, &Profile{TotalTime: T, TotalMemMB: M}, nil); s != got {
		t.Errorf("Combined score = %v, Eq.2 = %v", s, got)
	}
}

// Property: Eq. 2 is monotone in both marginal time and marginal memory —
// the reason it avoids the pathologies of single-axis scoring.
func TestQuickEq2Monotone(t *testing.T) {
	f := func(tRaw, mRaw, dtRaw, dmRaw uint16) bool {
		T := 10 * time.Second
		M := 1000.0
		tt := time.Duration(tRaw) * time.Millisecond / 8 // ≤ ~8.2s < T
		m := float64(mRaw) / 66                          // ≤ ~990 < M
		dt := time.Duration(dtRaw) * time.Microsecond
		dm := float64(dmRaw) / 65536
		base := MarginalMonetaryCost(tt, T, m, M)
		moreTime := MarginalMonetaryCost(tt+dt, T, m, M)
		moreMem := MarginalMonetaryCost(tt, T, m+dm, M)
		return moreTime >= base-1e-9 && moreMem >= base-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
