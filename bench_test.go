// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation (§8), plus ablation benches for the
// design choices called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The corpus debloating pipeline (the expensive step shared by most
// figures) runs once in a shared suite, exactly as in the paper's artifact
// workflow where later experiments reuse the debloating experiment's
// outputs. BenchmarkPipeline_FullDebloat measures the pipeline itself from
// scratch per iteration.
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/appcorpus"
	"repro/internal/debloat"
	"repro/internal/experiments"
	"repro/internal/faas"
	"repro/internal/fleet"
	"repro/internal/obs/monitor"
	"repro/internal/obs/query"
	"repro/internal/profiler"
)

var (
	suiteOnce   sync.Once
	sharedSuite *experiments.Suite
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		sharedSuite = experiments.NewSuite()
		// Prime the shared debloat cache on the worker pool so per-figure
		// benches measure regeneration, not the one-time pipeline. The
		// results are schedule-independent (see Suite.DebloatAll).
		if err := sharedSuite.DebloatAll(runtime.GOMAXPROCS(0)); err != nil {
			panic(err)
		}
	})
	return sharedSuite
}

func BenchmarkFigure1_PhaseBreakdown(b *testing.B) {
	s := suite(b)
	var lastShare float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		lastShare = r.InitBillShare
	}
	b.ReportMetric(100*lastShare, "init_bill_%")
}

func BenchmarkTable1_Applications(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2_ColdStartCost(b *testing.B) {
	s := suite(b)
	var median float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		median = r.MedianShare
	}
	b.ReportMetric(100*median, "median_import_%")
}

func BenchmarkFigure8_Debloating(b *testing.B) {
	s := suite(b)
	var speedup, cost float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		speedup, cost = r.AvgSpeedup, r.AvgCostImprove
	}
	b.ReportMetric(speedup, "avg_speedup_x")
	b.ReportMetric(100*cost, "avg_cost_savings_%")
}

func BenchmarkTable2_Baselines(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9_ScoringAblation(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if !r.CombinedWins() {
			b.Fatal("combined scoring lost the ablation")
		}
	}
}

func BenchmarkTable3_DebloatEfficacy(b *testing.B) {
	s := suite(b)
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		saving = r.AvgCkptSaving
	}
	b.ReportMetric(100*saving, "avg_ckpt_savings_%")
}

func BenchmarkFigure10_VaryingK(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		if !r.PlateausAt20(0.01) {
			b.Fatal("no plateau at K=20")
		}
	}
}

func BenchmarkFigure11_WarmStarts(b *testing.B) {
	s := suite(b)
	var impact float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		impact = r.MaxAbsImpact
	}
	b.ReportMetric(100*impact, "max_warm_impact_%")
}

func BenchmarkFigure12_CheckpointRestore(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13_SnapStartCDF(b *testing.B) {
	s := suite(b)
	var median float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		median = r.Curves[1].Median
	}
	b.ReportMetric(100*median, "median_snap_share_%")
}

func BenchmarkFigure14_SnapStartCosts(b *testing.B) {
	s := suite(b)
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := s.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		saving = r.AvgSaving
	}
	b.ReportMetric(100*saving, "avg_total_savings_%")
}

func BenchmarkTable4_Fallback(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Pipeline benches — the debloater itself, end to end and per stage.
// ---------------------------------------------------------------------------

// BenchmarkPipeline_FullDebloat measures λ-trim's full pipeline from
// scratch on representative apps of increasing size, with import-snapshot
// memoization on and off. Both arms produce byte-identical simulated
// results (the memo contract in DESIGN.md §9) — only real wall-clock and
// real allocations differ.
func BenchmarkPipeline_FullDebloat(b *testing.B) {
	apps := []string{"markdown", "lightgbm", "spacy", "resnet"}
	if testing.Short() {
		apps = apps[:2]
	}
	for _, name := range apps {
		for _, arm := range []struct {
			label       string
			disableMemo bool
		}{
			{"memo", false},
			{"nomemo", true},
		} {
			b.Run(name+"/"+arm.label, func(b *testing.B) {
				b.ReportAllocs()
				var oracleRuns int
				for i := 0; i < b.N; i++ {
					app := appcorpus.MustBuild(name)
					cfg := debloat.DefaultConfig()
					cfg.DisableMemo = arm.disableMemo
					res, err := debloat.Run(app, cfg)
					if err != nil {
						b.Fatal(err)
					}
					oracleRuns = res.OracleRuns
				}
				b.ReportMetric(float64(oracleRuns), "oracle_runs")
			})
		}
	}
}

// BenchmarkPipeline_SuitePriming measures the up-front corpus debloat every
// full experiments run performs: sequential vs the bounded worker pool,
// each iteration from a cold suite (fresh caches).
func BenchmarkPipeline_SuitePriming(b *testing.B) {
	if testing.Short() {
		b.Skip("full-corpus priming is too slow for -short")
	}
	pool := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pool = append(pool, n)
	}
	for _, workers := range pool {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.NewSuite()
				if err := s.DebloatAll(workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipeline_Profiler measures the cost-profiling stage alone.
func BenchmarkPipeline_Profiler(b *testing.B) {
	app := appcorpus.MustBuild("resnet")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profiler.Run(app.Image, app.Entry, profiler.Options{Scoring: profiler.Combined}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_ColdStart measures one simulated cold start.
func BenchmarkPipeline_ColdStart(b *testing.B) {
	app := appcorpus.MustBuild("lightgbm")
	cfg := faas.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faas.MeasureColdStart(app, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (design choices from DESIGN.md §6).
// ---------------------------------------------------------------------------

// BenchmarkAblation_Granularity contrasts attribute- vs statement-
// granularity DD: the paper's §6.1 argues attributes remove more (finer on
// from-imports) — the metric reports attributes removed per arm.
func BenchmarkAblation_Granularity(b *testing.B) {
	for _, arm := range []struct {
		name string
		g    debloat.Granularity
	}{{"attribute", debloat.AttrGranularity}, {"statement", debloat.StmtGranularity}} {
		b.Run(arm.name, func(b *testing.B) {
			var removed int
			for i := 0; i < b.N; i++ {
				app := appcorpus.MustBuild("lightgbm")
				cfg := debloat.DefaultConfig()
				cfg.Granularity = arm.g
				res, err := debloat.Run(app, cfg)
				if err != nil {
					b.Fatal(err)
				}
				removed = res.TotalRemoved()
			}
			b.ReportMetric(float64(removed), "attrs_removed")
		})
	}
}

// BenchmarkAblation_CallGraph measures the effect of PyCG protection on DD
// work: without it, every attribute is a candidate and the oracle must
// rediscover the app's needs dynamically.
func BenchmarkAblation_CallGraph(b *testing.B) {
	for _, arm := range []struct {
		name    string
		disable bool
	}{{"with_pycg", false}, {"without_pycg", true}} {
		b.Run(arm.name, func(b *testing.B) {
			var runs int
			for i := 0; i < b.N; i++ {
				app := appcorpus.MustBuild("lightgbm")
				cfg := debloat.DefaultConfig()
				cfg.DisableCallGraph = arm.disable
				res, err := debloat.Run(app, cfg)
				if err != nil {
					b.Fatal(err)
				}
				runs = res.OracleRuns
			}
			b.ReportMetric(float64(runs), "oracle_runs")
		})
	}
}

// BenchmarkAblation_BillingGranularity measures how the provider's billing
// rounding changes λ-trim's cost savings: AWS bills per 1 ms, GCP rounds to
// 100 ms, Azure to 1 s (paper §1 footnote 1). Coarse rounding swallows
// sub-second savings.
func BenchmarkAblation_BillingGranularity(b *testing.B) {
	s := suite(b)
	res, err := s.Debloat("lightgbm")
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name    string
		pricing faas.Pricing
	}{
		{"aws_1ms", faas.AWSPricing()},
		{"gcp_100ms", faas.GCPPricing()},
		{"azure_1s", faas.AzurePricing()},
	} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := s.Platform
			cfg.Pricing = arm.pricing
			var saving float64
			for i := 0; i < b.N; i++ {
				before, err := faas.MeasureColdStart(res.Original, cfg)
				if err != nil {
					b.Fatal(err)
				}
				after, err := faas.MeasureColdStart(res.App, cfg)
				if err != nil {
					b.Fatal(err)
				}
				saving = (before.CostUSD - after.CostUSD) / before.CostUSD
			}
			b.ReportMetric(100*saving, "cost_savings_%")
		})
	}
}

// BenchmarkAblation_ParallelDD measures the §9 future-work feature: the
// wall-clock effect of evaluating DD subsets concurrently.
func BenchmarkAblation_ParallelDD(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				app := appcorpus.MustBuild("resnet")
				cfg := debloat.DefaultConfig()
				cfg.Workers = workers
				if _, err := debloat.Run(app, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtension_BurstColdStorm measures λ-trim under the bursty
// scale-out workload the paper's introduction motivates: a burst of
// concurrent requests against an empty pool cold-starts one instance per
// request, so initialization savings multiply across the whole burst.
func BenchmarkExtension_BurstColdStorm(b *testing.B) {
	s := suite(b)
	res, err := s.Debloat("resnet")
	if err != nil {
		b.Fatal(err)
	}
	const burst = 16
	for _, arm := range []struct {
		name string
		app  func() *faas.Platform
	}{
		{"original", func() *faas.Platform {
			p := faas.New(s.Platform)
			p.Deploy(res.Original)
			return p
		}},
		{"trimmed", func() *faas.Platform {
			p := faas.New(s.Platform)
			p.Deploy(res.App)
			return p
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var totalCost, aggInitSec float64
			for i := 0; i < b.N; i++ {
				p := arm.app()
				invs, err := p.InvokeBurst("resnet", map[string]any{}, burst)
				if err != nil {
					b.Fatal(err)
				}
				totalCost, aggInitSec = 0, 0
				for _, inv := range invs {
					totalCost += inv.CostUSD
					aggInitSec += inv.Init.Seconds()
				}
			}
			b.ReportMetric(aggInitSec, "aggregate_init_s")
			b.ReportMetric(totalCost*1000, "burst_cost_milli$")
		})
	}
}

// BenchmarkAblation_FallbackWrapper verifies the wrapper's overhead during
// normal operation is negligible: invocations through a fallback-equipped
// deployment vs a plain one.
func BenchmarkAblation_FallbackWrapper(b *testing.B) {
	s := suite(b)
	res, err := s.Debloat("lightgbm")
	if err != nil {
		b.Fatal(err)
	}
	event := res.Original.Oracle[0].Event

	b.Run("plain", func(b *testing.B) {
		p := faas.New(s.Platform)
		p.Deploy(res.App)
		for i := 0; i < b.N; i++ {
			if _, err := p.Invoke(res.App.Name, event); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("with_fallback", func(b *testing.B) {
		p := faas.New(s.Platform)
		p.DeployWithFallback(res.App, res.Original)
		for i := 0; i < b.N; i++ {
			if _, err := p.Invoke(res.App.Name, event); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable2Ext_MeasuredBaselines runs all three debloaters
// (λ-trim cached; FaaSLight and Vulture executed) on the FaaSLight suite.
func BenchmarkTable2Ext_MeasuredBaselines(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2Ext(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitor_ReplayOverhead contrasts the same seeded replay with
// monitoring off (nil *Monitor, the default) and on (TSDB + three SLOs +
// ledger + dashboard). The off arm is the baseline throughput; the on arm's
// ns/op ratio against it is the monitoring overhead, which should stay in
// the low single-digit percent. Output correctness is asserted elsewhere:
// monitor-off replays are byte-identical to pre-monitor main
// (TestMonitorDoesNotPerturbReplay) and monitor-on artifacts are seed-
// deterministic (TestMonitorGoldenDeterminism).
func BenchmarkMonitor_ReplayOverhead(b *testing.B) {
	s := suite(b)
	res, err := s.Debloat("lightgbm")
	if err != nil {
		b.Fatal(err)
	}
	event := res.Original.Oracle[0].Event
	slos, err := monitor.ParseSLOs("p95=900ms,err=2%,costinv=9e-7")
	if err != nil {
		b.Fatal(err)
	}
	const requests = 200
	replay := func(mon *monitor.Monitor) {
		cfg := s.Platform
		cfg.Monitor = mon
		p := faas.New(cfg)
		p.Deploy(res.Original)
		for i := 0; i < requests; i++ {
			if _, err := p.Invoke(res.Original.Name, event); err != nil {
				b.Fatal(err)
			}
			p.Advance(time.Duration(i%5) * time.Second)
		}
		mon.Finish()
	}
	for _, arm := range []struct {
		name string
		mon  func() *monitor.Monitor
	}{
		{"off", func() *monitor.Monitor { return nil }},
		{"on", func() *monitor.Monitor {
			return monitor.New(monitor.Config{
				Resolution:     5 * time.Second,
				SLOs:           slos,
				DashboardEvery: 30 * time.Second,
			})
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				replay(arm.mon())
			}
			b.ReportMetric(requests, "invocations/op")
		})
	}
}

// BenchmarkFleet_Replay measures the sharded fleet engine on a synthetic
// corpus-shaped day, with the telemetry plane off (pool dynamics and
// counters only — the raw replay throughput) and on (TSDB windows, three
// ledgers, histogram, registry, exemplars, post-hoc SLO evaluation). The
// metrics report invocations per wall-clock second and allocated bytes per
// invocation; the on/off ratio is the telemetry overhead. Byte-identity
// across worker counts is asserted in internal/fleet's tests — here both
// arms run on GOMAXPROCS shards.
func BenchmarkFleet_Replay(b *testing.B) {
	pc := fleet.DefaultPopConfig()
	if testing.Short() {
		pc.Functions = 1000
	}
	pop := fleet.GeneratePopulation(pc, nil)
	// The rules arm layers per-shard incremental recording rules on top of
	// full telemetry; its delta against telemetry_on is the rule-evaluation
	// overhead (a per-block boundary sweep — a few percent, not a second
	// pass over the samples).
	benchRules, err := query.ParseRules(`
		fleet:cost_usd:sum5m = sum(cost.usd[5m])
		fleet:req:rate5m = rate(req.total[5m])
	`)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name    string
		disable bool
		rules   []query.Rule
	}{
		{"telemetry_on", false, nil},
		{"telemetry_on_rules", false, benchRules},
		{"telemetry_off", true, nil},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			var inv uint64
			for i := 0; i < b.N; i++ {
				res, err := fleet.Replay(fleet.Config{
					Period:           pc.Period,
					SLOs:             fleet.DefaultSLOs(),
					Seed:             pc.Seed,
					Pricing:          pc.Pricing,
					DisableTelemetry: arm.disable,
					Rules:            arm.rules,
				}, pop)
				if err != nil {
					b.Fatal(err)
				}
				inv = res.Invocations
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			total := float64(inv) * float64(b.N)
			if sec := b.Elapsed().Seconds(); sec > 0 && total > 0 {
				b.ReportMetric(total/sec, "inv/s")
				b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/total, "B/inv")
			}
		})
	}
}

// BenchmarkReliability_FaultedReplay measures the failure-semantics
// extension: a full trace replay with OOM enforcement, timeouts, fault
// injection, and client retries across all three deployments. The metrics
// report the bare debloated deployment's exposure (post-retry failure
// rate) and the fleet-wide retry amplification the faults induce.
func BenchmarkReliability_FaultedReplay(b *testing.B) {
	s := suite(b)
	var failRate, retryAmp float64
	for i := 0; i < b.N; i++ {
		r, err := s.Reliability()
		if err != nil {
			b.Fatal(err)
		}
		failRate, retryAmp = 0, 0
		for _, row := range r.Rows {
			retryAmp += row.RetryAmplification() / float64(len(r.Rows))
			if row.Deployment == "debloated" {
				failRate = row.FailureRate()
			}
		}
	}
	b.ReportMetric(100*failRate, "debloated_fail_%")
	b.ReportMetric(retryAmp, "retry_amplification_x")
}

// BenchmarkQuery_RangeEval measures the mql engine sweeping a day of
// fleet telemetry: a ratio of rates (two trailing-window scans per
// boundary) and a quantile (a scan plus a sort) evaluated at every
// resolution boundary. The metric is boundary evaluations per second —
// the server's /query?step= cost model.
func BenchmarkQuery_RangeEval(b *testing.B) {
	pc := fleet.DefaultPopConfig()
	pc.Functions = 1000
	res, err := fleet.Replay(fleet.Config{
		Period:      pc.Period,
		SLOs:        fleet.DefaultSLOs(),
		Seed:        pc.Seed,
		Pricing:     pc.Pricing,
		LabelSeries: true,
	}, fleet.GeneratePopulation(pc, nil))
	if err != nil {
		b.Fatal(err)
	}
	eng := res.QueryEngine()
	for _, bench := range []struct{ name, q string }{
		{"rate_ratio", `rate(cost.usd[1h]) / rate(req.total[1h])`},
		{"labeled_sum", `sum(cost.usd{phase="init"}[1h])`},
		{"p95", `p95(req.total[1h])`},
	} {
		x, err := query.Parse(bench.q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			var points int
			for i := 0; i < b.N; i++ {
				points = len(eng.Range(x, 0, -1, 0))
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(points)*float64(b.N)/sec, "boundaries/s")
			}
		})
	}
}
