package faas

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/appcorpus"
	"repro/internal/appspec"
	"repro/internal/pyparser"
	"repro/internal/pyruntime"
	"repro/internal/vfs"
)

// testApp builds a small app with known init/exec cost.
func testApp(name string) *appspec.App {
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    lib.work()
    print("handled", event.get("id", 0))
    return {"ok": True}
`)
	fs.Write("site-packages/lib/__init__.py", `
load_native(200, 50)

def work():
    compute(30)
`)
	return &appspec.App{
		Name: name, Image: fs, Entry: "handler", Handler: "handler",
		Oracle:       []appspec.TestCase{{Name: "t", Event: map[string]any{"id": 1}}},
		SetupDelayMS: 300, ImageSizeMB: 120,
	}
}

// fallbackApp is a debloated-style app whose handler raises AttributeError
// on mode=advanced.
func fallbackApp(name string) *appspec.App {
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    if event.get("mode", "basic") == "advanced":
        return lib.removed_fn()
    return {"ok": True}
`)
	fs.Write("site-packages/lib/__init__.py", "load_native(50, 10)\n")
	return &appspec.App{
		Name: name, Image: fs, Entry: "handler", Handler: "handler",
		SetupDelayMS: 100, ImageSizeMB: 40,
	}
}

func TestColdThenWarm(t *testing.T) {
	p := New(DefaultConfig())
	p.Deploy(testApp("fn"))

	inv1, err := p.Invoke("fn", map[string]any{"id": 1})
	if err != nil {
		t.Fatal(err)
	}
	if inv1.Kind != ColdStart {
		t.Error("first invocation should be cold")
	}
	if inv1.Init < 200*time.Millisecond {
		t.Errorf("init = %v, want ≥200ms", inv1.Init)
	}
	if inv1.InstanceInit == 0 || inv1.ImageTransfer == 0 {
		t.Error("cold start should include provider phases")
	}
	if inv1.Stdout != "handled 1\n" {
		t.Errorf("stdout = %q", inv1.Stdout)
	}

	inv2, err := p.Invoke("fn", map[string]any{"id": 2})
	if err != nil {
		t.Fatal(err)
	}
	if inv2.Kind != WarmStart {
		t.Error("second invocation should be warm")
	}
	if inv2.Init != 0 || inv2.InstanceInit != 0 {
		t.Error("warm start must skip initialization")
	}
	if inv2.E2E >= inv1.E2E {
		t.Errorf("warm E2E %v should beat cold %v", inv2.E2E, inv1.E2E)
	}
	// Warm starts bill only execution.
	if inv2.BilledDuration >= inv1.BilledDuration {
		t.Error("warm billed duration should be smaller")
	}
}

// TestDeploymentParsesEachModuleOnce: Deploy's profile fills the
// deployment's parse cache with every module of the image (markdown's
// handler imports them all), so a cold start parses nothing and allocates
// less than one without the cache; and the cache changes no observable: a
// cold start equals one on a deployment without it.
func TestDeploymentParsesEachModuleOnce(t *testing.T) {
	app := appcorpus.MustBuild("markdown")
	p := New(DefaultConfig())
	p.Deploy(app)
	asts := p.fns[app.Name].asts
	for _, path := range app.Image.List() {
		src, err := app.Image.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun's warm-up call would fill the cache itself, so it
		// does nothing and the one measured call is the first lookup.
		warm := true
		lookup := testing.AllocsPerRun(1, func() {
			if warm {
				warm = false
				return
			}
			if _, err := asts.Parse(path, path, src); err != nil {
				t.Fatal(err)
			}
		})
		parse := testing.AllocsPerRun(1, func() {
			if _, err := pyparser.Parse(path, src); err != nil {
				t.Fatal(err)
			}
		})
		if lookup*10 >= parse {
			t.Errorf("%s: first cache lookup after Deploy made %.0f allocations, a parse %.0f: the deploy profile did not parse through the deployment's cache", path, lookup, parse)
		}
	}

	event := app.Oracle[0].Event
	cached, err := p.Invoke(app.Name, event)
	if err != nil {
		t.Fatal(err)
	}
	bare := New(DefaultConfig())
	bare.Deploy(app.Clone())
	bare.fns[app.Name].asts = nil
	uncached, err := bare.Invoke(app.Name, event)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Kind != ColdStart || !reflect.DeepEqual(cached, uncached) {
		t.Errorf("cold start with the deployment's cache = %+v, without = %+v", cached, uncached)
	}
	coldAllocs := func(p *Platform) float64 {
		return testing.AllocsPerRun(3, func() {
			p.Advance(KeepAlive + time.Second) // the pool expires: a cold start
			if _, err := p.Invoke(app.Name, event); err != nil {
				t.Fatal(err)
			}
		})
	}
	if c, u := coldAllocs(p), coldAllocs(bare); c >= u {
		t.Errorf("a cold start made %.0f allocations with the deployment's cache, %.0f without", c, u)
	}
}

func TestKeepAliveExpiry(t *testing.T) {
	p := New(DefaultConfig())
	p.Deploy(testApp("fn"))

	if _, err := p.Invoke("fn", nil); err != nil {
		t.Fatal(err)
	}
	p.Advance(KeepAlive + time.Minute) // exceed keep-alive
	inv, err := p.Invoke("fn", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Kind != ColdStart {
		t.Error("instance should have expired")
	}

	// Within keep-alive, it stays warm.
	p.Advance(30 * time.Second)
	inv, err = p.Invoke("fn", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Kind != WarmStart {
		t.Error("instance should still be warm")
	}
}

func TestBillingFormula(t *testing.T) {
	pr := AWSPricing()
	cost := pr.Cost(1*time.Second, 1024)
	if diff := cost - 0.0000162109; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("1GB-s cost = %.10f", cost)
	}
	// Rounding to 1ms.
	if pr.BillDuration(1500*time.Microsecond) != 2*time.Millisecond {
		t.Error("1ms rounding broken")
	}
	if pr.BillDuration(2*time.Millisecond) != 2*time.Millisecond {
		t.Error("exact durations must not round up")
	}
	// Azure rounds to 1s.
	if AzurePricing().BillDuration(10*time.Millisecond) != time.Second {
		t.Error("Azure rounding broken")
	}
	// Memory floor.
	if pr.ConfigureMemory(3) != 128 {
		t.Error("128MB floor not applied")
	}
	if pr.ConfigureMemory(300.2) != 301 {
		t.Errorf("ceil config = %d", pr.ConfigureMemory(300.2))
	}
}

func TestMinBillingHidesSmallFootprints(t *testing.T) {
	// Two apps under the floor bill identically per unit time — the
	// effect the paper notes for small applications.
	pr := AWSPricing()
	if pr.Cost(time.Second, pr.ConfigureMemory(40)) != pr.Cost(time.Second, pr.ConfigureMemory(90)) {
		t.Error("both sub-floor footprints should bill at 128MB")
	}
}

func TestFallbackOnAttributeError(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg)
	debloated := fallbackApp("app")
	original := testApp("app") // original handles everything
	p.DeployWithFallback(debloated, original)

	// Normal path: no fallback.
	inv, err := p.Invoke("app", map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if inv.FallbackUsed || inv.Err != nil {
		t.Errorf("normal path used fallback: %+v", inv)
	}

	// Advanced path: AttributeError -> fallback serves the request.
	inv, err = p.Invoke("app", map[string]any{"mode": "advanced"})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.FallbackUsed {
		t.Fatal("fallback not used")
	}
	if inv.Err != nil {
		t.Errorf("fallback should absorb the error: %v", inv.Err)
	}
	if inv.FallbackKind != ColdStart {
		t.Error("first fallback invocation should be cold")
	}
	// E2E includes the failed attempt, wrapper setup, and the fallback.
	if inv.E2E < FallbackSetup {
		t.Error("fallback E2E too small")
	}

	// Second advanced request: fallback instance is now warm.
	inv2, err := p.Invoke("app", map[string]any{"mode": "advanced"})
	if err != nil {
		t.Fatal(err)
	}
	if inv2.FallbackKind != WarmStart {
		t.Error("second fallback should be warm")
	}
	if inv2.E2E >= inv.E2E {
		t.Errorf("warm fallback E2E %v should beat cold %v", inv2.E2E, inv.E2E)
	}
}

func TestFallbackOnWrappedAttributeError(t *testing.T) {
	// Application code that catches the AttributeError and re-raises a
	// derived error still signals an over-trimmed artifact: the fallback
	// must follow the exception chain to the root cause.
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    try:
        return lib.removed_fn()
    except AttributeError:
        raise RuntimeError("model pipeline failed")
`)
	fs.Write("site-packages/lib/__init__.py", "load_native(50, 10)\n")
	debloated := &appspec.App{Name: "app", Image: fs, Entry: "handler", Handler: "handler", SetupDelayMS: 100}
	p := New(DefaultConfig())
	p.DeployWithFallback(debloated, testApp("app"))

	inv, err := p.Invoke("app", map[string]any{"id": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.FallbackUsed {
		t.Fatal("wrapped AttributeError must trigger the fallback")
	}
	if inv.Err != nil {
		t.Errorf("fallback should absorb the error: %v", inv.Err)
	}
}

// A fallback attempt that fails reports its own failure: here the original
// raises on the path the debloated artifact lacks, so the request ends
// with the original's exception although the fallback served it.
func TestFallbackKeepsItsOwnFailure(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", `
def handler(event, context):
    if event.get("mode", "basic") == "advanced":
        raise ValueError("advanced mode is broken")
    return {"ok": True}
`)
	original := &appspec.App{Name: "app", Image: fs, Entry: "handler", Handler: "handler", SetupDelayMS: 100}
	p := New(DefaultConfig())
	p.DeployWithFallback(fallbackApp("app"), original)

	inv, err := p.Invoke("app", map[string]any{"mode": "advanced"})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.FallbackUsed {
		t.Fatal("fallback not used")
	}
	perr, ok := inv.Err.(*pyruntime.PyErr)
	if !ok || perr.ClassName() != "ValueError" || inv.Class != FailureHandler || inv.Result != "" {
		t.Errorf("err=%v class=%s result=%q, want the original's ValueError as a handler error and no result", inv.Err, inv.Class, inv.Result)
	}
}

func TestFallbackOnAttributeErrorInsideHandlerClause(t *testing.T) {
	// The trimmed attribute is only touched while handling an unrelated
	// exception — the escaping error IS the AttributeError, chained onto
	// the original KeyError. The fallback must still fire.
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    try:
        return event["required"]
    except KeyError:
        return lib.removed_recovery()
`)
	fs.Write("site-packages/lib/__init__.py", "load_native(50, 10)\n")
	debloated := &appspec.App{Name: "app", Image: fs, Entry: "handler", Handler: "handler", SetupDelayMS: 100}
	p := New(DefaultConfig())
	p.DeployWithFallback(debloated, testApp("app"))

	inv, err := p.Invoke("app", map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.FallbackUsed {
		t.Fatal("AttributeError raised inside an exception handler must trigger the fallback")
	}
	if inv.Err != nil {
		t.Errorf("fallback should absorb the error: %v", inv.Err)
	}
}

func TestRedeployKeepsFallbackWiring(t *testing.T) {
	// Pushing a new artifact over a fallback-equipped name (how a repaired
	// debloat lands) must not silently drop the safety net.
	p := New(DefaultConfig())
	p.DeployWithFallback(fallbackApp("app"), testApp("app"))
	inv, err := p.Invoke("app", map[string]any{"mode": "advanced"})
	if err != nil || !inv.FallbackUsed {
		t.Fatalf("precondition: fallback should fire (inv=%+v err=%v)", inv, err)
	}

	p.Deploy(fallbackApp("app")) // redeploy: still broken on mode=advanced
	inv, err = p.Invoke("app", map[string]any{"mode": "advanced"})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.FallbackUsed {
		t.Fatal("redeploy dropped the fallback wiring")
	}
	if inv.Err != nil {
		t.Errorf("fallback should absorb the error: %v", inv.Err)
	}
}

func TestDeployWithFallbackRedeployUsesFreshOriginal(t *testing.T) {
	// Redeploying debloated+original must route fallbacks to the NEW
	// original, not a stale clone of the first one.
	p := New(DefaultConfig())
	p.DeployWithFallback(fallbackApp("app"), testApp("app"))

	orig2 := testApp("app")
	orig2.Image.Write("handler.py", `
import lib

def handler(event, context):
    lib.work()
    print("v2 serving", event.get("id", 0))
    return {"ok": True, "v": 2}
`)
	p.DeployWithFallback(fallbackApp("app"), orig2)

	inv, err := p.Invoke("app", map[string]any{"mode": "advanced", "id": 7})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.FallbackUsed {
		t.Fatal("fallback not used after redeploy")
	}
	if inv.Stdout != "v2 serving 7\n" {
		t.Errorf("fallback served stale original: stdout = %q", inv.Stdout)
	}
}

func TestNonAttributeErrorsPropagate(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", `
def handler(event, context):
    raise ValueError("genuine bug")
`)
	bad := &appspec.App{Name: "bad", Image: fs, Entry: "handler", Handler: "handler", SetupDelayMS: 50}
	p := New(DefaultConfig())
	p.DeployWithFallback(bad, testApp("bad"))
	inv, err := p.Invoke("bad", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inv.FallbackUsed {
		t.Error("ValueError must not trigger the AttributeError fallback")
	}
	if inv.Err == nil {
		t.Error("error should propagate to the caller")
	}
}

func TestUnknownFunction(t *testing.T) {
	p := New(DefaultConfig())
	if _, err := p.Invoke("ghost", nil); err == nil {
		t.Error("expected error for unknown function")
	}
}

func TestMeasureHelpers(t *testing.T) {
	app := testApp("m")
	cold, err := MeasureColdStart(app, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Kind != ColdStart {
		t.Error("MeasureColdStart returned a warm start")
	}
	warm, err := MeasureWarmStart(app, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Kind != WarmStart {
		t.Error("MeasureWarmStart returned a cold start")
	}
}

func TestWarmStatePersistsAcrossInvocations(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", `
counter = [0]

def handler(event, context):
    counter[0] += 1
    return counter[0]
`)
	app := &appspec.App{Name: "stateful", Image: fs, Entry: "handler", Handler: "handler", SetupDelayMS: 50}
	p := New(DefaultConfig())
	p.Deploy(app)
	inv1, _ := p.Invoke("stateful", nil)
	inv2, _ := p.Invoke("stateful", nil)
	if inv1.Result != "1" || inv2.Result != "2" {
		t.Errorf("warm state lost: %q then %q", inv1.Result, inv2.Result)
	}
}

// Property: billed duration is never less than the raw duration and the
// rounding is exact-multiple idempotent.
func TestQuickBillRounding(t *testing.T) {
	pr := AWSPricing()
	f := func(us uint32) bool {
		d := time.Duration(us) * time.Microsecond
		billed := pr.BillDuration(d)
		if billed < d {
			return false
		}
		return pr.BillDuration(billed) == billed && billed-d < time.Millisecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cost scales linearly in duration and memory.
func TestQuickCostLinear(t *testing.T) {
	pr := AWSPricing()
	f := func(msRaw uint16, memRaw uint16) bool {
		d := time.Duration(msRaw) * time.Millisecond
		mem := int(memRaw%8192) + 128
		c1 := pr.Cost(d, mem)
		c2 := pr.Cost(2*d, mem)
		c3 := pr.Cost(d, 2*mem)
		return almost(c2, 2*c1) && almost(c3, 2*c1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func almost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

func TestBillingEdgeCases(t *testing.T) {
	pr := AWSPricing()
	// Non-positive durations bill nothing — a kill before any billable
	// phase must not produce a negative line item.
	if pr.BillDuration(-5*time.Millisecond) != 0 {
		t.Error("negative duration should round to zero")
	}
	if pr.BillDuration(0) != 0 {
		t.Error("zero duration should bill zero")
	}
	if pr.Cost(-time.Second, 1024) != 0 {
		t.Error("negative billed duration should cost nothing")
	}
	if pr.Cost(time.Second, -128) != 0 || pr.Cost(time.Second, 0) != 0 {
		t.Error("non-positive memory should cost nothing")
	}
	// Granularity <= 0 passes durations through unchanged (documented).
	free := Pricing{USDPerGBSecond: 1, Granularity: 0}
	if free.BillDuration(123*time.Microsecond) != 123*time.Microsecond {
		t.Error("Granularity 0 must pass the duration through")
	}
	// Azure's 1 s rounding bills a 1 ms execution as a full second.
	az := AzurePricing()
	if az.BillDuration(time.Millisecond) != time.Second {
		t.Error("Azure should round 1ms up to 1s")
	}
	if got, want := az.Cost(az.BillDuration(time.Millisecond), 1024), az.Cost(time.Second, 1024); got != want {
		t.Errorf("1ms exec bills %.10f, want the full-second %.10f", got, want)
	}
}

// Property: rounding is monotone — a longer execution never bills less.
func TestQuickBillRoundingMonotone(t *testing.T) {
	for _, pr := range []Pricing{AWSPricing(), GCPPricing(), AzurePricing()} {
		f := func(aRaw, bRaw uint32) bool {
			a := time.Duration(aRaw) * time.Microsecond
			b := time.Duration(bRaw) * time.Microsecond
			if a > b {
				a, b = b, a
			}
			return pr.BillDuration(a) <= pr.BillDuration(b)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("granularity %v: %v", pr.Granularity, err)
		}
	}
}

// Property: cost is non-decreasing in both duration and memory.
func TestQuickCostMonotone(t *testing.T) {
	pr := AWSPricing()
	f := func(msRaw uint16, extraMs uint16, memRaw uint16, extraMem uint16) bool {
		d := time.Duration(msRaw) * time.Millisecond
		mem := int(memRaw%8192) + 128
		longer := d + time.Duration(extraMs)*time.Millisecond
		bigger := mem + int(extraMem%4096)
		return pr.Cost(pr.BillDuration(longer), mem) >= pr.Cost(pr.BillDuration(d), mem) &&
			pr.Cost(pr.BillDuration(d), bigger) >= pr.Cost(pr.BillDuration(d), mem)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// burst delivers n copies of event at once with no retries: a plain
// scale-out burst.
func burst(t *testing.T, p *Platform, name string, event map[string]any, n int) []*Invocation {
	t.Helper()
	events := make([]map[string]any, n)
	for i := range events {
		events[i] = event
	}
	invs, err := p.InvokeGroupWithRetry(name, events, RetryPolicy{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	return invs
}

func TestInvokeBurstColdStorm(t *testing.T) {
	p := New(DefaultConfig())
	p.Deploy(testApp("burst"))

	// Prime two warm instances with an initial burst of 2.
	for _, inv := range burst(t, p, "burst", nil, 2) {
		if inv.Kind != ColdStart {
			t.Error("initial burst should be all cold")
		}
	}
	stats, _ := p.FunctionStats("burst")
	if stats.ColdStarts != 2 {
		t.Fatalf("cold starts = %d, want 2", stats.ColdStarts)
	}

	// Wait for both to go idle, then burst 5: two warm, three cold.
	p.Advance(10 * time.Second)
	cold, warm := 0, 0
	for _, inv := range burst(t, p, "burst", nil, 5) {
		if inv.Kind == ColdStart {
			cold++
		} else {
			warm++
		}
	}
	if warm != 2 || cold != 3 {
		t.Errorf("burst served warm=%d cold=%d, want 2/3", warm, cold)
	}
}

func TestBurstAdvancesClockBySlowest(t *testing.T) {
	p := New(DefaultConfig())
	p.Deploy(testApp("b2"))
	t0 := p.Now()
	var maxE2E time.Duration
	for _, inv := range burst(t, p, "b2", nil, 3) {
		if inv.E2E > maxE2E {
			maxE2E = inv.E2E
		}
	}
	if p.Now()-t0 != maxE2E {
		t.Errorf("clock advanced %v, want slowest E2E %v", p.Now()-t0, maxE2E)
	}
}

func TestBusyInstancesNotReused(t *testing.T) {
	p := New(DefaultConfig())
	p.Deploy(testApp("b3"))
	// A burst of 4 simultaneous requests needs 4 instances: none can be
	// shared while busy.
	for _, inv := range burst(t, p, "b3", nil, 4) {
		if inv.Kind != ColdStart {
			t.Error("simultaneous requests cannot share an instance")
		}
	}
}
