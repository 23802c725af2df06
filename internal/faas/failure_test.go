package faas

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/appspec"
	"repro/internal/vfs"
)

// memApp's handler allocates event-dependent memory and burns
// event-dependent CPU, so footprint and duration vary per request.
func memApp(name string) *appspec.App {
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    buf = native_alloc(event.get("mb", 10))
    compute(event.get("ms", 20))
    return {"ok": True}
`)
	fs.Write("site-packages/lib/__init__.py", "load_native(100, 50)\n")
	return &appspec.App{
		Name: name, Image: fs, Entry: "handler", Handler: "handler",
		Oracle:       []appspec.TestCase{{Name: "light", Event: map[string]any{"mb": 10, "ms": 20}}},
		SetupDelayMS: 200, ImageSizeMB: 60,
	}
}

var (
	lightEvent = map[string]any{"mb": 10, "ms": 20}
	heavyEvent = map[string]any{"mb": 300, "ms": 20}
)

// Regression for the deploy-time memory configuration: invocation order
// must not change the configured memory (the old code latched the first
// invocation's peak, so a heavy-first workload was billed differently).
func TestMemoryConfiguredAtDeployNotFirstInvocation(t *testing.T) {
	run := func(events []map[string]any) []*Invocation {
		p := New(DefaultConfig())
		p.Deploy(memApp("fn"))
		var out []*Invocation
		for _, ev := range events {
			inv, err := p.Invoke("fn", ev)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, inv)
		}
		return out
	}

	lightFirst := run([]map[string]any{lightEvent, heavyEvent})
	heavyFirst := run([]map[string]any{heavyEvent, lightEvent})

	// The profiling invocation uses the light oracle event: peak ≈
	// 50 (lib) + 10 (alloc) + 35 (base) MB, under the 128 MB floor.
	for i, inv := range append(append([]*Invocation{}, lightFirst...), heavyFirst...) {
		if inv.MemoryMB != 128 {
			t.Errorf("invocation %d configured at %d MB, want the deploy-time 128", i, inv.MemoryMB)
		}
	}
	// And therefore the heavy event's bill no longer depends on order:
	// cold heavy (heavy-first) and cold light (light-first) share the
	// configuration, so the only cost difference is duration.
	if lightFirst[1].MemoryMB != heavyFirst[0].MemoryMB {
		t.Errorf("heavy event billed at %d vs %d MB depending on order",
			lightFirst[1].MemoryMB, heavyFirst[0].MemoryMB)
	}
}

func TestExplicitMemoryOverride(t *testing.T) {
	app := memApp("fn")
	app.MemoryMB = 512
	p := New(DefaultConfig())
	p.Deploy(app)
	inv, err := p.Invoke("fn", lightEvent)
	if err != nil {
		t.Fatal(err)
	}
	if inv.MemoryMB != 512 {
		t.Errorf("MemoryMB = %d, want the explicit 512", inv.MemoryMB)
	}
}

func TestOOMKill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnforceMemory = true
	p := New(cfg)
	p.Deploy(memApp("fn"))

	// Light event fits in the 128 MB configuration.
	inv, err := p.Invoke("fn", lightEvent)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Err != nil || inv.Class != FailureNone {
		t.Fatalf("light event should fit: %v", inv.Err)
	}
	full := inv.BilledDuration

	// Heavy event exceeds it: killed, partial duration billed.
	oom, err := p.Invoke("fn", heavyEvent)
	if err != nil {
		t.Fatal(err)
	}
	if oom.Class != FailureOOM || oom.Err == nil {
		t.Fatalf("heavy event should OOM, got class=%s err=%v", oom.Class, oom.Err)
	}
	if Classify(oom.Err) != FailureOOM {
		t.Error("Classify should report OOM")
	}
	if oom.MemoryMB != 128 {
		t.Errorf("OOM must not reconfigure memory: %d MB", oom.MemoryMB)
	}
	if oom.BilledDuration <= 0 {
		t.Error("OOM kill should bill the partial duration")
	}
	if oom.Exec >= 20*time.Millisecond {
		t.Errorf("exec %v should be truncated at the kill", oom.Exec)
	}
	if oom.CostUSD <= 0 {
		t.Error("partial duration must cost something")
	}
	_ = full

	// The environment is torn down: the next request cold-starts.
	after, err := p.Invoke("fn", lightEvent)
	if err != nil {
		t.Fatal(err)
	}
	if after.Kind != ColdStart {
		t.Error("OOM should destroy the instance")
	}
	stats, _ := p.FunctionStats("fn")
	if stats.OOMKills != 1 {
		t.Errorf("OOMKills = %d, want 1", stats.OOMKills)
	}
}

func TestOOMDisabledKeepsPermissiveBehavior(t *testing.T) {
	p := New(DefaultConfig()) // EnforceMemory off
	p.Deploy(memApp("fn"))
	inv, err := p.Invoke("fn", heavyEvent)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Err != nil || inv.Class != FailureNone {
		t.Errorf("without enforcement the heavy event must succeed: %v", inv.Err)
	}
}

func TestTimeoutKillsBilledWindow(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    compute(5000)
    return "done"
`)
	fs.Write("site-packages/lib/__init__.py", "load_native(200, 20)\n")
	app := &appspec.App{
		Name: "slow", Image: fs, Entry: "handler", Handler: "handler",
		SetupDelayMS: 100,
	}
	cfg := DefaultConfig()
	cfg.DefaultTimeout = time.Second
	p := New(cfg)
	p.Deploy(app)

	inv, err := p.Invoke("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Class != FailureTimeout {
		t.Fatalf("class = %s, want timeout", inv.Class)
	}
	// Cold window = init (~200ms) + exec, killed at exactly 1s.
	if inv.Init+inv.Exec != time.Second {
		t.Errorf("init+exec = %v, want the 1s timeout", inv.Init+inv.Exec)
	}
	if inv.Init < 200*time.Millisecond || inv.Init > 210*time.Millisecond {
		t.Errorf("init = %v, want ~200ms (untruncated)", inv.Init)
	}
	if inv.BilledDuration != time.Second {
		t.Errorf("billed = %v, want exactly the 1s timeout", inv.BilledDuration)
	}
	if inv.Result != "" {
		t.Error("a killed invocation must not return a result")
	}

	// The environment survives a timeout: warm next time, exec-only window.
	warm, err := p.Invoke("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Kind != WarmStart || warm.Class != FailureTimeout {
		t.Fatalf("warm timeout expected, got kind=%s class=%s", warm.Kind, warm.Class)
	}
	if warm.Exec != time.Second {
		t.Errorf("warm exec = %v, want the 1s timeout", warm.Exec)
	}
	stats, _ := p.FunctionStats("slow")
	if stats.Timeouts != 2 {
		t.Errorf("Timeouts = %d, want 2", stats.Timeouts)
	}
}

// A fallback attempt killed for memory is retried like any other attempt:
// every attempt's fallback runs the heavy event into an OOM kill, so the
// client spends its three attempts and gets the kill.
func TestRetryRetriesFailedFallback(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", `
import lib

def handler(event, context):
    return lib.removed_fn()
`)
	fs.Write("site-packages/lib/__init__.py", "load_native(50, 10)\n")
	debloated := &appspec.App{Name: "fn", Image: fs, Entry: "handler", Handler: "handler", SetupDelayMS: 100}
	cfg := DefaultConfig()
	cfg.EnforceMemory = true
	p := New(cfg)
	p.DeployWithFallback(debloated, memApp("fn"))

	pol := DefaultRetryPolicy()
	pol.Jitter = 0
	inv, err := p.InvokeWithRetry("fn", heavyEvent, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.FallbackUsed || inv.Class != FailureOOM || inv.Err == nil || inv.Attempts != pol.MaxAttempts {
		t.Errorf("fallback=%v class=%s err=%v attempts=%d, want %d attempts ending in the fallback's OOM kill",
			inv.FallbackUsed, inv.Class, inv.Err, inv.Attempts, pol.MaxAttempts)
	}
}

func TestTimeoutDuringInitKillsInstance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DefaultTimeout = 50 * time.Millisecond // below the 100ms import time
	p := New(cfg)
	p.Deploy(memApp("initslow"))
	inv, err := p.Invoke("initslow", lightEvent)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Class != FailureTimeout || inv.Init != 50*time.Millisecond || inv.Exec != 0 {
		t.Fatalf("init-phase timeout wrong: %+v", inv)
	}
	next, err := p.Invoke("initslow", lightEvent)
	if err != nil {
		t.Fatal(err)
	}
	if next.Kind != ColdStart {
		t.Error("an environment killed during init must not be reused")
	}
}

func TestThrottleUnderConcurrencyLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = FaultConfig{Enabled: true, ConcurrencyLimit: 2}
	p := New(cfg)
	p.Deploy(memApp("fn"))

	throttled := 0
	for _, inv := range burst(t, p, "fn", lightEvent, 4) {
		if inv.Class == FailureThrottle {
			throttled++
			if inv.CostUSD != 0 || inv.BilledDuration != 0 {
				t.Error("throttled requests are never billed")
			}
			if inv.E2E != RoutingOverhead {
				t.Errorf("throttle E2E = %v, want routing overhead only", inv.E2E)
			}
		}
	}
	if throttled != 2 {
		t.Errorf("throttled %d of 4, want 2 beyond the limit", throttled)
	}
	stats, _ := p.FunctionStats("fn")
	if stats.Throttles != 2 || stats.ColdStarts != 2 {
		t.Errorf("stats = %+v", stats)
	}

	// Once the burst drains, requests flow again.
	p.Advance(time.Minute)
	inv, err := p.Invoke("fn", lightEvent)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Class != FailureNone {
		t.Errorf("post-burst request failed: %v", inv.Err)
	}
}

func TestGroupRetryRecoversThrottles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = FaultConfig{Enabled: true, ConcurrencyLimit: 2}
	p := New(cfg)
	p.Deploy(memApp("fn"))

	pol := DefaultRetryPolicy()
	pol.Jitter = 0
	events := []map[string]any{lightEvent, lightEvent, lightEvent, lightEvent}
	invs, err := p.InvokeGroupWithRetry("fn", events, pol)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for i, inv := range invs {
		if inv.Err != nil {
			t.Errorf("request %d failed despite retries: %v", i, inv.Err)
		}
		if inv.Attempts > 1 {
			retried++
			if inv.BackoffWait <= 0 {
				t.Error("retried request should have waited")
			}
			if len(inv.AttemptCostsUSD) != inv.Attempts {
				t.Errorf("attempt costs %d != attempts %d", len(inv.AttemptCostsUSD), inv.Attempts)
			}
			// The throttled first attempt was free; the sum of attempts
			// is the aggregate bill.
			total := 0.0
			for _, c := range inv.AttemptCostsUSD {
				total += c
			}
			if total != inv.CostUSD {
				t.Errorf("cost %.12f != attempt sum %.12f", inv.CostUSD, total)
			}
		}
	}
	if retried != 2 {
		t.Errorf("retried %d requests, want the 2 throttled ones", retried)
	}
}

// findCrashSeed locates a seed whose injector stream crashes the first
// cold start but not the second — so the retry test asserts exact
// behavior rather than probabilities.
func findCrashSeed(t *testing.T, rate float64) int64 {
	t.Helper()
	for s := int64(0); s < 1000; s++ {
		r := rand.New(rand.NewSource(s))
		if r.Float64() < rate && r.Float64() >= rate {
			return s
		}
	}
	t.Fatal("no suitable seed under 1000")
	return 0
}

func TestRetryRecoversTransientInitCrash(t *testing.T) {
	const rate = 0.6
	seed := findCrashSeed(t, rate)

	cfg := DefaultConfig()
	cfg.FaultSeed = seed
	cfg.Faults = FaultConfig{Enabled: true, InitCrashRate: rate}
	p := New(cfg)
	p.Deploy(memApp("fn"))

	pol := DefaultRetryPolicy()
	pol.Jitter = 0 // exact backoff assertions
	inv, err := p.InvokeWithRetry("fn", lightEvent, pol)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Err != nil || inv.Class != FailureNone {
		t.Fatalf("retry should have recovered: class=%s err=%v", inv.Class, inv.Err)
	}
	if inv.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (crash, then success)", inv.Attempts)
	}
	if inv.BackoffWait != pol.InitialBackoff {
		t.Errorf("backoff = %v, want %v", inv.BackoffWait, pol.InitialBackoff)
	}
	if len(inv.AttemptCostsUSD) != 2 {
		t.Fatalf("attempt costs = %v", inv.AttemptCostsUSD)
	}
	// The crashed INIT is billed: the failed attempt appears on the bill.
	if inv.AttemptCostsUSD[0] <= 0 {
		t.Error("failed init attempt should cost money")
	}
	if inv.AttemptCostsUSD[0]+inv.AttemptCostsUSD[1] != inv.CostUSD {
		t.Error("aggregate cost must be the attempt sum")
	}
	if inv.AttemptCostsUSD[1] <= inv.AttemptCostsUSD[0] {
		t.Error("successful attempt (init+exec) should out-bill the crashed init")
	}
	stats, _ := p.FunctionStats("fn")
	if stats.InitCrashes != 1 || stats.ColdStarts != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestHandlerErrorsAreNotRetried(t *testing.T) {
	fs := vfs.New()
	fs.Write("handler.py", `
def handler(event, context):
    raise ValueError("deterministic bug")
`)
	app := &appspec.App{Name: "bad", Image: fs, Entry: "handler", Handler: "handler", SetupDelayMS: 50}
	p := New(DefaultConfig())
	p.Deploy(app)
	inv, err := p.InvokeWithRetry("bad", nil, DefaultRetryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if inv.Attempts != 1 {
		t.Errorf("attempts = %d; deterministic handler errors must not retry", inv.Attempts)
	}
	if inv.Class != FailureHandler {
		t.Errorf("class = %s", inv.Class)
	}
}

func TestSlowColdStartFault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = FaultConfig{Enabled: true, SlowColdRate: 1, SlowColdFactor: 4}
	p := New(cfg)
	p.Deploy(memApp("fn"))
	inv, err := p.Invoke("fn", lightEvent)
	if err != nil {
		t.Fatal(err)
	}
	// SetupDelayMS 200 split 40/60 then stretched 4x.
	if inv.InstanceInit != 320*time.Millisecond {
		t.Errorf("instance init = %v, want 4x80ms", inv.InstanceInit)
	}
	if inv.ImageTransfer != 480*time.Millisecond {
		t.Errorf("image transfer = %v, want 4x120ms", inv.ImageTransfer)
	}
}

func TestMemorySpikeCausesTransientOOM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnforceMemory = true
	cfg.Faults = FaultConfig{Enabled: true, MemorySpikeRate: 1, MemorySpikeMB: 200}
	p := New(cfg)
	p.Deploy(memApp("fn"))
	inv, err := p.Invoke("fn", lightEvent)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Class != FailureOOM {
		t.Fatalf("spiked invocation should OOM, got %s", inv.Class)
	}
	if inv.PeakMB <= 200 {
		t.Errorf("peak %f should include the 200MB spike", inv.PeakMB)
	}
}

func TestRetryBudgetWindowSemantics(t *testing.T) {
	b := NewRetryBudget(2, 10*time.Second)
	if !b.Spend(0) || !b.Spend(1*time.Second) {
		t.Fatal("first two retries fit the budget")
	}
	if b.Spend(2 * time.Second) {
		t.Error("third retry inside the window must be denied")
	}
	// 11.5s: both charges (at 0s and 1s) have aged out of the 10s window.
	if !b.Spend(11500*time.Millisecond) || !b.Spend(11500*time.Millisecond) {
		t.Error("expired charges must free the whole window")
	}
	if b.Spend(11500 * time.Millisecond) {
		t.Error("the recovered window holds two retries, not three")
	}
}

// Property: the budget's sliding-window invariant — within any window
// ending at a grant, at most MaxRetries grants — holds for arbitrary
// monotone charge sequences.
func TestQuickRetryBudgetWindowInvariant(t *testing.T) {
	f := func(maxRaw uint8, winRaw uint16, steps []uint16) bool {
		max := int(maxRaw%8) + 1
		win := time.Duration(winRaw%5000+1) * time.Millisecond
		b := NewRetryBudget(max, win)
		now := time.Duration(0)
		var granted []time.Duration
		for _, s := range steps {
			now += time.Duration(s) * time.Millisecond
			if b.Spend(now) {
				granted = append(granted, now)
			}
		}
		for i, gi := range granted {
			cnt := 0
			for _, gj := range granted[:i+1] {
				if gj > gi-win {
					cnt++
				}
			}
			if cnt > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// faultedWorkload drives a mixed workload (singles, groups, idle gaps)
// against a fault-heavy platform and returns the canonical log.
func faultedWorkload(seed int64) string {
	cfg := DefaultConfig()
	cfg.EnforceMemory = true
	cfg.FaultSeed = seed
	cfg.Faults = FaultConfig{
		Enabled:          true,
		InitCrashRate:    0.3,
		SlowColdRate:     0.3,
		SlowColdFactor:   3,
		MemorySpikeRate:  0.25,
		MemorySpikeMB:    150,
		ConcurrencyLimit: 2,
	}
	p := New(cfg)
	p.Deploy(memApp("fn"))
	pol := DefaultRetryPolicy()

	var lines []string
	for i := 0; i < 30; i++ {
		ev := lightEvent
		if i%7 == 3 {
			ev = heavyEvent
		}
		if i%5 == 4 {
			invs, err := p.InvokeGroupWithRetry("fn", []map[string]any{ev, lightEvent, lightEvent}, pol)
			if err != nil {
				panic(err)
			}
			for _, inv := range invs {
				lines = append(lines, inv.LogLine())
			}
		} else {
			inv, err := p.InvokeWithRetry("fn", ev, pol)
			if err != nil {
				panic(err)
			}
			lines = append(lines, inv.LogLine())
		}
		p.Advance(time.Duration(i%3) * 20 * time.Second)
	}
	return strings.Join(lines, "\n")
}

// Determinism: same FaultSeed and workload ⇒ byte-identical logs; a
// different seed perturbs them.
func TestFaultInjectionDeterministic(t *testing.T) {
	a := faultedWorkload(42)
	b := faultedWorkload(42)
	if a != b {
		t.Fatal("same seed produced different invocation logs")
	}
	if !strings.Contains(a, "init-crash") && !strings.Contains(a, "oom") &&
		!strings.Contains(a, "throttle") {
		t.Error("fault-heavy workload should show injected faults in the log")
	}
	if c := faultedWorkload(1042); c == a {
		t.Error("different seeds should perturb the workload")
	}
}

func TestClassify(t *testing.T) {
	throttle := &FailureError{Class: FailureThrottle, Function: "fn", Detail: "limit"}
	cases := []struct {
		name string
		err  error
		want FailureClass
	}{
		{"nil", nil, FailureNone},
		{"direct", throttle, FailureThrottle},
		{"wrapped", fmt.Errorf("attempt 2: %w", throttle), FailureThrottle},
		{"double-wrapped", fmt.Errorf("request: %w", fmt.Errorf("attempt: %w",
			&FailureError{Class: FailureInitCrash})), FailureInitCrash},
		{"unknown", errors.New("boom"), FailureHandler},
		{"joined", errors.Join(errors.New("context"), throttle), FailureThrottle},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFailureClassStringOutOfRange(t *testing.T) {
	if got := FailureClass(42).String(); got != "failure(42)" {
		t.Errorf("FailureClass(42) = %q", got)
	}
	if got := FailureClass(-1).String(); got != "failure(-1)" {
		t.Errorf("FailureClass(-1) = %q", got)
	}
}

// TestRetryBudgetCompaction: a day-long monotone charge stream must not
// accumulate expired entries — the backing slice stays bounded by the cap,
// not by the total number of grants (the old prune leaked the expired
// prefix and held every charge of the run).
func TestRetryBudgetCompaction(t *testing.T) {
	b := NewRetryBudget(4, time.Second)
	grants := 0
	for i := 0; i < 100000; i++ {
		if b.Spend(time.Duration(i) * 300 * time.Millisecond) {
			grants++
		}
		if len(b.spent) > b.MaxRetries {
			t.Fatalf("step %d: %d resident entries exceed cap %d", i, len(b.spent), b.MaxRetries)
		}
	}
	if grants < 1000 {
		t.Fatalf("window never recovered: only %d grants", grants)
	}
	if c := cap(b.spent); c > 8 {
		t.Errorf("backing array grew to %d entries despite compaction", c)
	}
}
