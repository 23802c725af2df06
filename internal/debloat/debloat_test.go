package debloat

import (
	"strings"
	"testing"

	"repro/internal/appspec"
	"repro/internal/faas"
	"repro/internal/profiler"
	"repro/internal/pyruntime"
	"repro/internal/vfs"
)

// torchExampleApp reconstructs the paper's running example (§6.2,
// Figures 5-7): a simplified torch library with six attributes, of which
// the application uses four. DD should remove MSELoss and SGD, and with
// them the import of torch.optim.
func torchExampleApp() *appspec.App {
	fs := vfs.New()
	fs.Write("handler.py", `
import torch

def handler(event, context):
    x = torch.tensor([1.0, 2.0])
    y = torch.tensor([3.0, 4.0])
    z = torch.view(torch.add(x, y), 2, 1)
    model = torch.nn.Linear(2, 1)
    model.weights = torch.tensor([4.0, 6.0])
    model.bias = torch.tensor([3.0])
    out = model(z)
    print(out.data)
    return "ok"
`)
	fs.Write("site-packages/torch/__init__.py", `
from torch.nn import Linear, MSELoss
from torch.optim import SGD
load_native(30, 12)

class tensor:
    def __init__(self, data):
        self.data = data

def add(t1, t2):
    out = []
    for pair in zip(t1.data, t2.data):
        out.append(pair[0] + pair[1])
    return tensor(out)

def view(t, dim1, dim2):
    return tensor(t.data)
`)
	fs.Write("site-packages/torch/nn/__init__.py", `
load_native(60, 30)

class Linear:
    def __init__(self, n_in, n_out):
        self.n_in = n_in
        self.n_out = n_out
        self.weights = None
        self.bias = None
    def __call__(self, t):
        total = 0.0
        for pair in zip(t.data, self.weights.data):
            total += pair[0] * pair[1]
        return type(t)([total + self.bias.data[0]])

class MSELoss:
    def __init__(self):
        load_native(15, 8)
`)
	fs.Write("site-packages/torch/optim/__init__.py", `
load_native(45, 25)

class SGD:
    def __init__(self, params, lr=0.01):
        self.params = params
        self.lr = lr
`)
	return &appspec.App{
		Name: "torch-example", Image: fs, Entry: "handler", Handler: "handler",
		Oracle: []appspec.TestCase{{Name: "t0", Event: map[string]any{}}},
	}
}

func TestDebloatTorchExample(t *testing.T) {
	app := torchExampleApp()
	res, err := Run(app, DefaultConfig())
	if err != nil {
		t.Fatalf("debloat: %v", err)
	}

	var torchResult *ModuleResult
	for i := range res.Modules {
		if res.Modules[i].Module == "torch" {
			torchResult = &res.Modules[i]
		}
	}
	if torchResult == nil {
		t.Fatalf("torch was not among debloated modules: %+v", res.Modules)
	}
	removed := strings.Join(torchResult.Removed, ",")
	if !strings.Contains(removed, "MSELoss") || !strings.Contains(removed, "SGD") {
		t.Errorf("expected MSELoss and SGD removed, got %q", removed)
	}
	for _, keepName := range []string{"tensor", "add", "view"} {
		if strings.Contains(removed, keepName) {
			t.Errorf("needed attribute %s was removed", keepName)
		}
	}

	// The optimized image must no longer import torch.optim at all.
	src, err2 := res.App.Image.Read("site-packages/torch/__init__.py")
	if err2 != nil {
		t.Fatalf("optimized torch missing: %v", err2)
	}
	if strings.Contains(src, "optim") {
		t.Errorf("optimized torch still references optim:\n%s", src)
	}
	if strings.Contains(src, "MSELoss") {
		t.Errorf("optimized torch still references MSELoss:\n%s", src)
	}
	if !strings.Contains(src, "Linear") {
		t.Errorf("optimized torch lost the needed Linear import:\n%s", src)
	}

	// Behaviour must be preserved end to end.
	origOut := runApp(t, app)
	optOut := runApp(t, res.App)
	if origOut != optOut {
		t.Errorf("behaviour diverged:\n orig %q\n opt  %q", origOut, optOut)
	}

	// And the trimmed app must be cheaper to initialize.
	origInit, origMem := measureInit(t, app)
	optInit, optMem := measureInit(t, res.App)
	if optInit >= origInit {
		t.Errorf("init time did not improve: %v -> %v", origInit, optInit)
	}
	if optMem >= origMem {
		t.Errorf("init memory did not improve: %d -> %d", origMem, optMem)
	}
}

func TestDebloatStatementGranularityCoarser(t *testing.T) {
	// At statement granularity, "from torch.nn import Linear, MSELoss" is
	// all-or-none: MSELoss cannot be removed because Linear is needed. The
	// attribute arm removes it. This is the paper's §6.1 argument.
	attrCfg := DefaultConfig()
	attrRes, err := Run(torchExampleApp(), attrCfg)
	if err != nil {
		t.Fatalf("attr debloat: %v", err)
	}
	stmtCfg := DefaultConfig()
	stmtCfg.Granularity = StmtGranularity
	stmtRes, err := Run(torchExampleApp(), stmtCfg)
	if err != nil {
		t.Fatalf("stmt debloat: %v", err)
	}
	if attrRes.TotalRemoved() <= stmtRes.TotalRemoved() {
		t.Errorf("attribute granularity should remove more: attr=%d stmt=%d",
			attrRes.TotalRemoved(), stmtRes.TotalRemoved())
	}
	// Specifically MSELoss survives the statement arm.
	stmtSrc, _ := stmtRes.App.Image.Read("site-packages/torch/__init__.py")
	if !strings.Contains(stmtSrc, "MSELoss") {
		t.Errorf("statement granularity unexpectedly removed MSELoss:\n%s", stmtSrc)
	}
}

func TestDebloatRespectsProtectedAttrs(t *testing.T) {
	app := torchExampleApp()
	res, err := Run(app, DefaultConfig())
	if err != nil {
		t.Fatalf("debloat: %v", err)
	}
	protected := res.Report.Protected["torch"]
	for _, m := range res.Modules {
		if m.Module != "torch" {
			continue
		}
		for _, r := range m.Removed {
			if protected[r] {
				t.Errorf("protected attribute %s was removed", r)
			}
		}
	}
}

func TestDebloatRandomScoringStillCorrect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scoring = profiler.Random
	cfg.Seed = 7
	app := torchExampleApp()
	res, err := Run(app, cfg)
	if err != nil {
		t.Fatalf("debloat: %v", err)
	}
	if runApp(t, app) != runApp(t, res.App) {
		t.Error("random scoring broke behaviour")
	}
}

func TestDebloatTimeAccounting(t *testing.T) {
	res, err := Run(torchExampleApp(), DefaultConfig())
	if err != nil {
		t.Fatalf("debloat: %v", err)
	}
	if res.OracleRuns < 5 {
		t.Errorf("suspiciously few oracle runs: %d", res.OracleRuns)
	}
	if res.DebloatTime < SpawnOverhead*5 {
		t.Errorf("debloat time %v inconsistent with %d runs", res.DebloatTime, res.OracleRuns)
	}
}

// The oracle and the platform call a handler the same way: an oracle run
// and a platform invocation hand it a context with the same keys.
func TestOracleAndPlatformShareContext(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", `
def handler(event, context):
    return sorted(context.keys())
`)
	app := &appspec.App{Name: "ctx", Image: fs, Entry: "handler", Handler: "handler",
		Oracle: []appspec.TestCase{{Name: "keys"}}}
	r, err := newRunner(app, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := faas.New(faas.DefaultConfig())
	p.Deploy(app)
	inv, err := p.Invoke(app.Name, nil)
	if err != nil || inv.Err != nil {
		t.Fatalf("platform invocation: %v %v", err, inv.Err)
	}
	want := "['function_name', 'function_version', 'memory_limit_in_mb', 'request_id']"
	if oracle := r.golden[0].result; oracle != want || inv.Result != want {
		t.Errorf("context keys: oracle %s, platform %s, want %s", oracle, inv.Result, want)
	}
}

// runApp invokes the handler once with an empty event, returning stdout +
// result repr.
func runApp(t *testing.T, app *appspec.App) string {
	t.Helper()
	in := pyruntime.New(app.Image)
	res, err := in.Invoke(app, nil, "r")
	if err != nil {
		t.Fatalf("%s: %v", app.Name, err)
	}
	return in.OutputString() + "|" + pyruntime.Repr(res)
}

// measureInit returns simulated import time and memory of initialization.
func measureInit(t *testing.T, app *appspec.App) (int64, int64) {
	t.Helper()
	in := pyruntime.New(app.Image)
	if _, perr := in.Import(app.Entry); perr != nil {
		t.Fatalf("%s: import: %v", app.Name, perr)
	}
	return int64(in.Clock.Now()), in.Alloc.Used()
}

// TestDebloatDeterministic: two runs over independently built copies of the
// same app must produce byte-identical optimized images — the property that
// makes every experiment in this repository reproducible.
func TestDebloatDeterministic(t *testing.T) {
	a, err := Run(torchExampleApp(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(torchExampleApp(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.OracleRuns != b.OracleRuns || a.TotalRemoved() != b.TotalRemoved() {
		t.Errorf("run stats differ: %d/%d runs, %d/%d removed",
			a.OracleRuns, b.OracleRuns, a.TotalRemoved(), b.TotalRemoved())
	}
	listA := a.App.Image.List()
	listB := b.App.Image.List()
	if len(listA) != len(listB) {
		t.Fatalf("image file counts differ: %d vs %d", len(listA), len(listB))
	}
	for i, path := range listA {
		if path != listB[i] {
			t.Fatalf("file lists diverge at %d: %s vs %s", i, path, listB[i])
		}
		ca, _ := a.App.Image.Read(path)
		cb, _ := b.App.Image.Read(path)
		if ca != cb {
			t.Errorf("content differs at %s", path)
		}
	}
}
