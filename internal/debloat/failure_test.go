package debloat

import (
	"strings"
	"testing"

	"repro/internal/appspec"
	"repro/internal/vfs"
)

// Failure-injection coverage: the pipeline must fail loudly, not produce a
// broken "optimized" app, when its inputs are unusable.

func TestRunRejectsEmptyOracle(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", "def handler(event, context):\n    return 1\n")
	app := &appspec.App{Name: "x", Image: fs, Entry: "handler", Handler: "handler"}
	if _, err := Run(app, DefaultConfig()); err == nil {
		t.Error("empty oracle must be rejected")
	}
}

func TestRunRejectsFailingOracle(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", `
def handler(event, context):
    raise ValueError("always broken")
`)
	app := &appspec.App{Name: "x", Image: fs, Entry: "handler", Handler: "handler",
		Oracle: []appspec.TestCase{{Name: "t", Event: map[string]any{}}}}
	_, err := Run(app, DefaultConfig())
	if err == nil {
		t.Fatal("an app failing its own oracle must be rejected")
	}
	if !strings.Contains(err.Error(), "fails its own oracle") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestRunRejectsMissingHandler(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", "x = 1\n")
	app := &appspec.App{Name: "x", Image: fs, Entry: "handler", Handler: "handler",
		Oracle: []appspec.TestCase{{Name: "t", Event: map[string]any{}}}}
	if _, err := Run(app, DefaultConfig()); err == nil {
		t.Error("missing handler must be rejected")
	}
}

func TestRunRejectsMissingEntry(t *testing.T) {
	app := &appspec.App{Name: "x", Image: vfs.New(), Entry: "handler", Handler: "handler",
		Oracle: []appspec.TestCase{{Name: "t", Event: map[string]any{}}}}
	if _, err := Run(app, DefaultConfig()); err == nil {
		t.Error("missing entry module must be rejected")
	}
}

func TestModulesWithoutSourceAreSkipped(t *testing.T) {
	// An app whose profiler candidates include a module that does not live
	// in site-packages (the entry itself) — debloating must skip it with a
	// reason rather than fail.
	app := torchExampleApp()
	res, err := Run(app, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Modules {
		if m.Module == "handler" && m.Skipped == "" {
			t.Error("application code must never be debloated")
		}
	}
}

// TestShadowedLibraryIsSkipped: the importer searches the image root before
// site-packages, so a root lib.py shadows site-packages/lib.py. lib is
// application code then: the debloater must skip it, not reduce and rewrite
// the site-packages copy that the app never loads.
func TestShadowedLibraryIsSkipped(t *testing.T) {
	lib := `
load_native(40, 20)

def work(x):
    return x * 2

def extra():
    return load_native(30, 10)
`
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    return lib.work(event.get("x", 1))
`)
	fs.Write("lib.py", lib)
	fs.Write("site-packages/lib.py", lib)
	app := &appspec.App{Name: "shadow", Image: fs, Entry: "handler", Handler: "handler",
		Oracle: []appspec.TestCase{{Name: "t", Event: map[string]any{"x": 3}}}}
	res, err := Run(app, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res.Modules {
		if m.Module != "lib" {
			continue
		}
		found = true
		if m.Skipped != "not a site-packages module" || len(m.Removed) != 0 {
			t.Errorf("lib: skipped %q, removed %v; want it skipped as application code", m.Skipped, m.Removed)
		}
	}
	if !found {
		t.Fatal("the profiler never ranked lib")
	}
	if got, _ := res.App.Image.Read("site-packages/lib.py"); got != lib {
		t.Errorf("the site-packages copy the app never loads was rewritten:\n%s", got)
	}
}

func TestUnparseableLibraryIsSkippedNotFatal(t *testing.T) {
	app := torchExampleApp()
	// Inject a broken library that the app never imports but which sits in
	// site-packages; it cannot become a profiler candidate (never loaded),
	// so the run succeeds and leaves it untouched.
	app.Image.Write("site-packages/broken.py", "def oops(:\n")
	if _, err := Run(app, DefaultConfig()); err != nil {
		t.Fatalf("broken unrelated library should not break the pipeline: %v", err)
	}
}

func TestVerifyApp(t *testing.T) {
	good := torchExampleApp()
	if err := VerifyApp(good); err != nil {
		t.Errorf("good app failed verification: %v", err)
	}
	bad := torchExampleApp()
	bad.Image.Write("site-packages/torch/__init__.py", "raise RuntimeError(\"corrupt\")\n")
	if err := VerifyApp(bad); err == nil {
		t.Error("corrupted app passed verification")
	}
}

// TestOracleComparesRemoteJournal: removing an attribute that changes the
// app's external side effects must fail the oracle even when stdout and
// the return value are unchanged (§5.3: "serverless state and side effects
// are comprised of external calls to remote services"; the oracle
// intercepts and compares them).
//
// The library registers itself with a license server at import time. The
// app never references the involved attributes, so PyCG cannot protect
// them and DD will try to remove them; only the remote-call journal
// comparison keeps them alive. A sibling attribute with no side effect is
// removed, proving DD did consider this module.
func TestOracleComparesRemoteJournal(t *testing.T) {
	app := licensedApp()
	res, err := Run(app, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, _ := res.App.Image.Read("site-packages/lib/__init__.py")
	if !strings.Contains(src, "_register") || !strings.Contains(src, "_lease") {
		t.Errorf("import-time remote side effect was removed:\n%s", src)
	}
	if strings.Contains(src, "unused_helper") {
		t.Errorf("side-effect-free dead attribute survived:\n%s", src)
	}
}

// licensedApp is an app whose library registers itself with a license
// server at import time; the handler never reads the registration.
func licensedApp() *appspec.App {
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    return lib.work(event.get("id", 0))
`)
	fs.Write("site-packages/lib/__init__.py", licensedLib)
	return &appspec.App{Name: "audit", Image: fs, Entry: "handler", Handler: "handler",
		Oracle: []appspec.TestCase{{Name: "t", Event: map[string]any{"id": 7}}}}
}

const licensedLib = `
def _register():
    return remote_call("license-server", "register", {"product": "lib"})

_lease = _register()

def work(id):
    return id * 2

def unused_helper(x):
    return x
`

// TestVerificationComparesRemoteJournal: the pipeline's final check of the
// materialized image compares what the oracle compares, the remote-call
// journal included. An image hand-edited to skip the import-time
// registration keeps stdout and the result, and must still be rejected.
func TestVerificationComparesRemoteJournal(t *testing.T) {
	app := licensedApp()
	run, err := newRunner(app, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	edited := app.Clone()
	edited.Image.Write("site-packages/lib/__init__.py", strings.Replace(licensedLib, "_lease = _register()", "", 1))
	final, err := newRunner(edited, nil, 0, nil, nil)
	if err != nil {
		t.Fatalf("the edited image fails its own oracle: %v", err)
	}
	g, e := run.golden[0], final.golden[0]
	if g.stdout != e.stdout || g.result != e.result || len(e.remote) != len(g.remote)-1 {
		t.Fatalf("the edit should drop one remote call and keep stdout and the result: %+v vs %+v", e, g)
	}
	if _, ok := final.diverges(run); !ok {
		t.Error("verification accepted an image that drops an import-time remote call")
	}
}
