package baselines

import (
	"testing"

	"repro/internal/appcorpus"
	"repro/internal/appspec"
	"repro/internal/debloat"
	"repro/internal/pyruntime"
	"repro/internal/vfs"
)

// smallApp builds an app where the expected outcomes of each baseline are
// hand-checkable: `used` is called, `dead_ref` is referenced-but-dead,
// `never` appears nowhere else.
func smallApp() *appspec.App {
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    print(lib.used())
    return "ok"
`)
	fs.Write("site-packages/lib/__init__.py", `
load_native(40, 10)

def used():
    return 42

def dead_ref():
    return helper()

def helper():
    return 1

def never():
    return 0
`)
	return &appspec.App{
		Name: "small", Image: fs, Entry: "handler", Handler: "handler",
		Oracle: []appspec.TestCase{{Name: "t", Event: map[string]any{}}},
	}
}

func TestFaaSLightRemovesUnreachable(t *testing.T) {
	res, err := FaaSLight(smallApp(), 20)
	if err != nil {
		t.Fatal(err)
	}
	removed := map[string]bool{}
	for _, names := range res.RemovedPerModule {
		for _, n := range names {
			removed[n] = true
		}
	}
	if removed["used"] {
		t.Error("FaaSLight removed a reachable attribute")
	}
	if !removed["never"] {
		t.Errorf("FaaSLight kept an unreachable attribute; removed=%v", removed)
	}
	if !VerifyBehaviour(res) {
		t.Error("FaaSLight output broke the app")
	}
	if res.SafeguardOverheadMS <= 0 {
		t.Error("FaaSLight must charge its safeguard overhead")
	}
}

func TestVultureUltraConservative(t *testing.T) {
	res, err := Vulture(smallApp())
	if err != nil {
		t.Fatal(err)
	}
	removed := map[string]bool{}
	for _, names := range res.RemovedPerModule {
		for _, n := range names {
			removed[n] = true
		}
	}
	// helper is referenced (inside dead_ref) so Vulture keeps it even
	// though it is dynamically dead — the tool's defining weakness.
	if removed["helper"] {
		t.Error("Vulture removed a textually-referenced attribute")
	}
	if removed["used"] {
		t.Error("Vulture removed a used attribute")
	}
	if !removed["never"] {
		t.Errorf("Vulture kept a never-referenced attribute; removed=%v", removed)
	}
	if !VerifyBehaviour(res) {
		t.Error("Vulture output broke the app")
	}
}

// TestOrderingOnCorpusApp checks the Table 2 ordering on a real corpus app:
// λ-trim removes the most, then FaaSLight, then Vulture.
func TestOrderingOnCorpusApp(t *testing.T) {
	app := appcorpus.MustBuild("lightgbm")

	trim, err := debloat.Run(app.Clone(), debloat.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fl, err := FaaSLight(app.Clone(), 20)
	if err != nil {
		t.Fatal(err)
	}
	vu, err := Vulture(app.Clone())
	if err != nil {
		t.Fatal(err)
	}

	if !(trim.TotalRemoved() >= fl.TotalRemoved()) {
		t.Errorf("λ-trim removed %d < FaaSLight %d", trim.TotalRemoved(), fl.TotalRemoved())
	}
	if !(fl.TotalRemoved() >= vu.TotalRemoved()) {
		t.Errorf("FaaSLight removed %d < Vulture %d", fl.TotalRemoved(), vu.TotalRemoved())
	}
	if vu.TotalRemoved() < 0 {
		t.Error("vulture removal negative?")
	}

	// Both baselines must preserve behaviour on this app.
	if !VerifyBehaviour(fl) {
		t.Error("FaaSLight broke lightgbm")
	}
	if !VerifyBehaviour(vu) {
		t.Error("Vulture broke lightgbm")
	}
}

// TestFaaSLightKeepsIntraModuleDeps: a kept attribute's dependencies must
// survive the fixpoint.
func TestFaaSLightKeepsIntraModuleDeps(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    return lib.entry()
`)
	fs.Write("site-packages/lib/__init__.py", `
def entry():
    return _impl()

def _impl():
    return _deeper()

def _deeper():
    return 7
`)
	app := &appspec.App{Name: "deps", Image: fs, Entry: "handler", Handler: "handler",
		Oracle: []appspec.TestCase{{Name: "t", Event: map[string]any{}}}}
	res, err := FaaSLight(app, 20)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := res.App.Image.Read("site-packages/lib/__init__.py")
	for _, needed := range []string{"entry", "_impl", "_deeper"} {
		if !contains(src, "def "+needed) {
			t.Errorf("fixpoint dropped %s:\n%s", needed, src)
		}
	}
	if !VerifyBehaviour(res) {
		t.Error("behaviour broken")
	}
}

// TestShadowedLibraryIsSkipped: the importer searches the image root before
// site-packages, so a root lib.py shadows site-packages/lib.py and lib is
// application code. Neither baseline may rewrite the site-packages copy,
// which the app never loads.
func TestShadowedLibraryIsSkipped(t *testing.T) {
	lib := `
load_native(40, 20)

def work(x):
    return x * 2

def extra():
    return load_native(30, 10)
`
	shadowApp := func() *appspec.App {
		fs := vfs.New()
		fs.Write("handler.py", `
import lib

def handler(event, context):
    return lib.work(event.get("x", 1))
`)
		fs.Write("lib.py", lib)
		fs.Write("site-packages/lib.py", lib)
		return &appspec.App{Name: "shadow", Image: fs, Entry: "handler", Handler: "handler",
			Oracle: []appspec.TestCase{{Name: "t", Event: map[string]any{"x": 3}}}}
	}
	for _, tc := range []struct {
		name string
		run  func(*appspec.App) (*Result, error)
	}{
		{"FaaSLight", func(app *appspec.App) (*Result, error) { return FaaSLight(app, 20) }},
		{"Vulture", Vulture},
	} {
		res, err := tc.run(shadowApp())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.RemovedPerModule) != 0 {
			t.Errorf("%s removed %v from a library the app never loads", tc.name, res.RemovedPerModule)
		}
		if got, _ := res.App.Image.Read("site-packages/lib.py"); got != lib {
			t.Errorf("%s rewrote the site-packages copy the app never loads:\n%s", tc.name, got)
		}
		if !VerifyBehaviour(res) {
			t.Errorf("%s broke the app", tc.name)
		}
	}
}

func TestPathToModule(t *testing.T) {
	cases := map[string]string{
		pyruntime.SitePackages + "numpy/__init__.py":    "numpy",
		pyruntime.SitePackages + "torch/nn/__init__.py": "torch.nn",
		pyruntime.SitePackages + "requests.py":          "requests",
	}
	for path, want := range cases {
		if got := pathToModule(path); got != want {
			t.Errorf("pathToModule(%q) = %q, want %q", path, got, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
