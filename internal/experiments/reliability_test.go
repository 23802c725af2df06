package experiments

import (
	"strings"
	"testing"
	"time"
)

// reliabilityWith replays cfg over the suite's cached debloat of cfg.App.
func reliabilityWith(t *testing.T, cfg ReliabilityConfig) *ReliabilityResult {
	t.Helper()
	res, err := suite.Debloat(cfg.App)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReliabilityCompare(res.Original, res.App, suite.Platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestReliabilityExperiment(t *testing.T) {
	res, err := suite.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	byName := map[string]ReliabilityRow{}
	for i, want := range []string{"original", "debloated", "fallback"} {
		if res.Rows[i].Deployment != want {
			t.Fatalf("row %d = %q, want %q", i, res.Rows[i].Deployment, want)
		}
		byName[want] = res.Rows[i]
	}

	orig, trim, fb := byName["original"], byName["debloated"], byName["fallback"]

	// All three replay the same workload.
	for name, row := range byName {
		if row.Requests == 0 || row.Requests != orig.Requests {
			t.Errorf("%s: requests = %d, want %d (shared workload)", name, row.Requests, orig.Requests)
		}
		if row.CostUSD <= 0 {
			t.Errorf("%s: cost = %v, want > 0", name, row.CostUSD)
		}
		if row.RetryAmplification() < 1 {
			t.Errorf("%s: retry amplification %v < 1", name, row.RetryAmplification())
		}
	}

	// Debloating shrinks the provisioned memory configuration.
	if trim.MemoryMB >= orig.MemoryMB {
		t.Errorf("debloated MemoryMB %d !< original %d", trim.MemoryMB, orig.MemoryMB)
	}

	// Injected faults actually fire somewhere in the replay.
	if orig.OOMKills == 0 {
		t.Error("no OOM kills despite memory-spike injection")
	}
	if orig.Throttles == 0 {
		t.Error("no throttles despite concurrency limit")
	}
	if orig.InitCrashes+trim.InitCrashes+fb.InitCrashes == 0 {
		t.Error("no init crashes despite injection")
	}

	// The original handles every code path; retries absorb the transient
	// faults, so it ends fault-tolerant. The bare debloated deployment
	// fails on the uncovered advanced path (handler errors are never
	// retried); the fallback wrapper absorbs those.
	if orig.Failures != 0 {
		t.Errorf("original failures = %d, want 0 after retries", orig.Failures)
	}
	if trim.Failures == 0 {
		t.Error("bare debloated deployment should fail on uncovered paths")
	}
	if fb.FallbackServed == 0 {
		t.Error("fallback deployment never used its fallback")
	}
	if fb.Failures >= trim.Failures {
		t.Errorf("fallback failures %d !< bare debloated %d", fb.Failures, trim.Failures)
	}

	// The wrapper's insurance premium: fallback costs more than bare
	// debloated (double invocations on uncovered paths) but the debloated
	// variants stay cheaper than the original.
	if fb.CostUSD <= trim.CostUSD {
		t.Errorf("fallback cost %v !> bare debloated %v", fb.CostUSD, trim.CostUSD)
	}
	if trim.CostUSD >= orig.CostUSD {
		t.Errorf("debloated cost %v !< original %v", trim.CostUSD, orig.CostUSD)
	}

	out := res.Render()
	for _, want := range []string{"Reliability", "original", "debloated", "fallback", "RetryAmp"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// A fixed seed reproduces the experiment byte-for-byte.
func TestReliabilityDeterministic(t *testing.T) {
	a, err := suite.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	b, err := suite.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("same seed rendered differently:\n%s\nvs\n%s", a.Render(), b.Render())
	}

	cfg := DefaultReliabilityConfig()
	cfg.Seed = 99
	c := reliabilityWith(t, cfg)
	if c.Render() == a.Render() {
		t.Error("different seeds rendered identically")
	}
}

// A timeout between the debloated and original cold-start windows shows
// the λ-trim reliability win the cost tables cannot: the original's
// heavyweight initialization blows the deadline on every cold start,
// while the debloated function's trimmed import finishes in time.
func TestReliabilityTimeoutPressure(t *testing.T) {
	cfg := DefaultReliabilityConfig()
	cfg.Timeout = 500 * time.Millisecond
	res := reliabilityWith(t, cfg)
	var orig, trim ReliabilityRow
	for _, row := range res.Rows {
		switch row.Deployment {
		case "original":
			orig = row
		case "debloated":
			trim = row
		}
	}
	if orig.Timeouts == 0 {
		t.Error("original should time out on cold starts under a 500ms deadline")
	}
	if orig.Failures == 0 {
		t.Error("repeated cold-start timeouts should exhaust retries")
	}
	if trim.Timeouts != 0 {
		t.Errorf("debloated timeouts = %d, want 0 (trimmed init fits the deadline)", trim.Timeouts)
	}
}
