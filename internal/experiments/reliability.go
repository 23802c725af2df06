package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/appspec"
	"repro/internal/faas"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// Reliability — failure semantics under injected faults (extension)
// ---------------------------------------------------------------------------
//
// The paper's fallback wrapper (§5.4, §8.7) exists because debloating is a
// risk: an oracle-uncovered path raises AttributeError in production. This
// experiment replays a bursty trace workload against a platform with the
// failure model enabled — OOM enforcement, timeouts, throttling under a
// concurrency limit, transient init crashes, slow cold starts, and
// input-dependent memory spikes — and compares three deployments of the
// same application:
//
//	original   the un-optimized function
//	debloated  λ-trim's output, deployed bare
//	fallback   λ-trim's output wrapped with the original as fallback
//
// measuring failure rate, retry amplification, per-class fault counts,
// and total cost. It answers the reliability questions the cost tables
// cannot: what do the uncovered paths cost without the wrapper, what does
// the wrapper's insurance cost under faults, and how does the smaller
// footprint shift OOM and throttle exposure.

// ReliabilityConfig parameterizes the replay.
type ReliabilityConfig struct {
	// App is the corpus application to study.
	App string
	// Seed drives trace generation AND the platform fault injector, so a
	// fixed seed reproduces the experiment byte-for-byte.
	Seed int64
	// MaxRequests caps the replayed arrivals.
	MaxRequests int
	// Timeout, when positive, bounds every invocation's billed window
	// (the platform's default timeout for the replay).
	Timeout time.Duration
}

// DefaultReliabilityConfig replays ~150 requests of lightgbm at seed 7
// under a one-second timeout.
func DefaultReliabilityConfig() ReliabilityConfig {
	return ReliabilityConfig{App: "lightgbm", Seed: 7, MaxRequests: 150, Timeout: time.Second}
}

// The replays' shared workload and provisioning parameters.
const (
	// burstWindow groups arrivals closer than this into one concurrent
	// burst — what builds the concurrency that trips the throttle limit.
	burstWindow = 2 * time.Second
	// headroom provisions each deployment's memory at this factor over
	// its own profiled peak (the operator's safety margin).
	headroom = 1.2
	// advancedEvery routes every Nth reliability request to the
	// rarely-used code path the oracle does not cover. This is the λ-trim
	// risk the fallback wrapper absorbs.
	advancedEvery = 9
)

// reliabilityFaults is the injected fault mix: aggressive enough that
// every failure class fires within a ~150-request replay, while success
// still dominates.
var reliabilityFaults = faas.FaultConfig{
	Enabled:          true,
	InitCrashRate:    0.15,
	SlowColdRate:     0.20,
	SlowColdFactor:   3,
	MemorySpikeRate:  0.12,
	MemorySpikeMB:    96,
	ConcurrencyLimit: 3,
}

// provision returns a copy of app configured with memory at headroom over
// its profiled peak.
func provision(app *appspec.App, peakMB float64) *appspec.App {
	cp := app.Clone()
	cp.MemoryMB = int(math.Ceil(peakMB * headroom))
	return cp
}

// ReliabilityRow is one deployment's outcome over the replay.
type ReliabilityRow struct {
	Deployment string
	// MemoryMB is the provisioned configuration (peak × headroom).
	MemoryMB int
	Requests int
	// Attempts counts platform invocations including retries (fallback
	// re-invocations are not attempts — they are part of one attempt).
	Attempts int
	// Failures counts requests that still failed after all retries.
	Failures int
	// Per-class platform fault counts (per attempt).
	OOMKills    int
	Timeouts    int
	Throttles   int
	InitCrashes int
	ColdStarts  int
	// FallbackServed counts requests the fallback function absorbed.
	FallbackServed int
	// CostUSD is the aggregate bill, failed and retried attempts included.
	CostUSD float64
}

// FailureRate is the post-retry request failure fraction.
func (r ReliabilityRow) FailureRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Failures) / float64(r.Requests)
}

// RetryAmplification is attempts per request (1.0 = no retries).
func (r ReliabilityRow) RetryAmplification() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Attempts) / float64(r.Requests)
}

// ReliabilityResult aggregates the three deployments.
type ReliabilityResult struct {
	App    string
	Seed   int64
	Config ReliabilityConfig
	Rows   []ReliabilityRow
}

// Reliability runs the replay with the default configuration, reusing the
// suite's cached debloating result.
func (s *Suite) Reliability() (*ReliabilityResult, error) {
	cfg := DefaultReliabilityConfig()
	res, err := s.Debloat(cfg.App)
	if err != nil {
		return nil, err
	}
	return ReliabilityCompare(res.Original, res.App, s.Platform, cfg)
}

// ReliabilityCompare replays the faulted workload against the original,
// debloated, and fallback-wrapped deployments of one app. The platform
// config is the fault-free baseline; the fault model from cfg is layered
// on top.
func ReliabilityCompare(orig, trim *appspec.App, platform faas.Config, cfg ReliabilityConfig) (*ReliabilityResult, error) {
	// Profile each variant's peak under the clean config to provision
	// memory at the operator's headroom factor.
	origProbe, err := faas.MeasureColdStart(orig, platform)
	if err != nil {
		return nil, fmt.Errorf("reliability: profiling original: %w", err)
	}
	trimProbe, err := faas.MeasureColdStart(trim, platform)
	if err != nil {
		return nil, fmt.Errorf("reliability: profiling debloated: %w", err)
	}
	// The workload: the synthetic Azure-shaped trace's hottest arrival
	// process — the adversarial case for throttling and cold-start storms.
	groups := burstGroups(cfg.Seed, cfg.MaxRequests)
	retry := faas.DefaultRetryPolicy()

	faulted := platform
	faulted.EnforceMemory = true
	faulted.DefaultTimeout = cfg.Timeout
	faulted.FaultSeed = cfg.Seed
	faulted.Faults = reliabilityFaults

	normalEvent := map[string]any{}
	if len(orig.Oracle) > 0 {
		normalEvent = orig.Oracle[0].Event
	}

	out := &ReliabilityResult{App: orig.Name, Seed: cfg.Seed, Config: cfg}
	type variant struct {
		label  string
		deploy func(p *faas.Platform) (invokeName string, statNames []string, memMB int)
	}
	variants := []variant{
		{"original", func(p *faas.Platform) (string, []string, int) {
			a := provision(orig, origProbe.PeakMB)
			p.Deploy(a)
			return a.Name, []string{a.Name}, a.MemoryMB
		}},
		{"debloated", func(p *faas.Platform) (string, []string, int) {
			a := provision(trim, trimProbe.PeakMB)
			p.Deploy(a)
			return a.Name, []string{a.Name}, a.MemoryMB
		}},
		{"fallback", func(p *faas.Platform) (string, []string, int) {
			a := provision(trim, trimProbe.PeakMB)
			fb := provision(orig, origProbe.PeakMB)
			p.DeployWithFallback(a, fb)
			return a.Name, []string{a.Name, fb.Name + "-fallback"}, a.MemoryMB
		}},
	}

	for _, v := range variants {
		p := faas.New(faulted)
		name, statNames, memMB := v.deploy(p)
		row := ReliabilityRow{Deployment: v.label, MemoryMB: memMB}

		reqIdx := 0
		event := func() map[string]any {
			reqIdx++
			if reqIdx%advancedEvery == 0 {
				return advancedEvent
			}
			return normalEvent
		}
		absorb := func(inv *faas.Invocation) {
			row.Requests++
			attempts := inv.Attempts
			if attempts == 0 {
				attempts = 1
			}
			row.Attempts += attempts
			if inv.Err != nil {
				row.Failures++
			}
			if inv.FallbackUsed {
				row.FallbackServed++
			}
			row.CostUSD += inv.CostUSD
		}

		for _, g := range groups {
			if gap := g.start - p.Now(); gap > 0 {
				p.Advance(gap)
			}
			if g.size == 1 {
				inv, err := p.InvokeWithRetry(name, event(), retry)
				if err != nil {
					return nil, fmt.Errorf("reliability %s: %w", v.label, err)
				}
				absorb(inv)
				continue
			}
			events := make([]map[string]any, g.size)
			for i := range events {
				events[i] = event()
			}
			invs, err := p.InvokeGroupWithRetry(name, events, retry)
			if err != nil {
				return nil, fmt.Errorf("reliability %s: %w", v.label, err)
			}
			for _, inv := range invs {
				absorb(inv)
			}
		}

		for _, sn := range statNames {
			if st, ok := p.FunctionStats(sn); ok {
				row.OOMKills += st.OOMKills
				row.Timeouts += st.Timeouts
				row.Throttles += st.Throttles
				row.InitCrashes += st.InitCrashes
				row.ColdStarts += st.ColdStarts
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// arrivalGroup is a burst of near-simultaneous arrivals.
type arrivalGroup struct {
	start time.Duration
	size  int
}

// burstGroups generates the synthetic Azure-shaped trace, picks the
// hottest function — the adversarial case for throttling and cold-start
// storms — and clusters its first maxRequests arrivals into
// burstWindow-sized burst groups.
func burstGroups(seed int64, maxRequests int) []arrivalGroup {
	tr := trace.Generate(trace.GenConfig{Functions: 60, Period: 24 * time.Hour, Seed: seed})
	var hottest *trace.Function
	for i := range tr.Functions {
		f := &tr.Functions[i]
		if hottest == nil || len(f.Arrivals) > len(hottest.Arrivals) {
			hottest = f
		}
	}
	arrivals := hottest.SortedArrivals()
	if len(arrivals) > maxRequests {
		arrivals = arrivals[:maxRequests]
	}
	var groups []arrivalGroup
	for _, at := range arrivals {
		if n := len(groups); n > 0 && at-groups[n-1].start <= burstWindow {
			groups[n-1].size++
			continue
		}
		groups = append(groups, arrivalGroup{start: at, size: 1})
	}
	return groups
}

// Render prints the comparison table.
func (r *ReliabilityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reliability — %s under injected faults (seed %d)\n", r.App, r.Seed)
	f := reliabilityFaults
	fmt.Fprintf(&b, "faults: init-crash %.0f%%, slow-cold %.0f%% (%.0fx), mem-spike %.0f%% (+%.0f MB), concurrency limit %d; retries: %d attempts\n",
		100*f.InitCrashRate, 100*f.SlowColdRate, f.SlowColdFactor,
		100*f.MemorySpikeRate, f.MemorySpikeMB, f.ConcurrencyLimit, faas.DefaultRetryPolicy().MaxAttempts)
	fmt.Fprintf(&b, "%-10s %6s %6s %8s %8s %9s %5s %5s %6s %6s %5s %9s %11s\n",
		"Deployment", "MemMB", "Reqs", "Attempts", "RetryAmp", "Fail%", "OOM", "Thr", "Crash", "TOut", "Fallb", "Cold", "Cost$")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %6d %6d %8d %8.2f %8.1f%% %5d %5d %6d %6d %5d %9d %11.6f\n",
			row.Deployment, row.MemoryMB, row.Requests, row.Attempts,
			row.RetryAmplification(), 100*row.FailureRate(),
			row.OOMKills, row.Throttles, row.InitCrashes, row.Timeouts,
			row.FallbackServed, row.ColdStarts, row.CostUSD)
	}
	b.WriteString("fallback rows absorb the debloated function's uncovered-path errors at the cost of double invocations\n")
	return b.String()
}
