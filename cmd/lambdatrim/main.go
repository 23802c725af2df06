// Command lambdatrim drives the λ-trim pipeline on one corpus application:
// static analysis, cost profiling, Delta-Debugging debloat, and a
// before/after cold-start report.
//
// Usage:
//
//	lambdatrim <app> [-k N] [-scoring combined|time|memory|random] [-granularity attr|stmt]
//	lambdatrim -all [-workers N]
//	lambdatrim -dir path/to/app [-out path/to/optimized] ...
//	lambdatrim -list
//
// With -all, every corpus application is debloated under the default
// configuration on a pool of -workers goroutines (default GOMAXPROCS) and
// a before/after cold-start summary table is printed. The pool size only
// changes wall-clock time; all simulated results are schedule-independent.
//
// With -dir, the application is loaded from a real directory (handler.py +
// site-packages/ + oracle.json, the paper's input format); -out exports the
// optimized image for deployment.
//
// With -trace/-events/-metrics/-trace-summary, the run records a
// deterministic span tree and metrics over simulated time — the pipeline
// stages (analyze, profile, per-module DD) and every platform measurement
// (deploys, cold/warm invocations) — and exports it as Chrome trace-event
// JSON, a JSONL event log, a metrics snapshot, or a text digest.
//
// Example:
//
//	lambdatrim resnet -k 20
//	lambdatrim -dir ./myapp -out ./myapp-trimmed
//	lambdatrim markdown -trace t.json -metrics m.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/appcorpus"
	"repro/internal/appspec"
	"repro/internal/chaos"
	"repro/internal/debloat"
	"repro/internal/experiments"
	"repro/internal/faas"
	"repro/internal/fleet"
	"repro/internal/imageio"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/obs/query"
	"repro/internal/obs/serve"
	"repro/internal/powertune"
	"repro/internal/profiler"
)

func main() {
	fs := flag.NewFlagSet("lambdatrim", flag.ExitOnError)
	k := fs.Int("k", 20, "number of top-ranked modules to debloat")
	scoring := fs.String("scoring", "combined", "profiler scoring: combined|time|memory|random")
	granularity := fs.String("granularity", "attr", "DD granularity: attr|stmt")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "apps debloated at once with -all (wall-clock only; results are identical at any count)")
	all := fs.Bool("all", false, "debloat the entire corpus in parallel and print a summary table")
	dir := fs.String("dir", "", "load the application from this directory instead of the corpus")
	out := fs.String("out", "", "export the optimized image to this directory")
	tune := fs.Bool("tune", false, "power-tune memory configurations before and after debloating")
	faults := fs.Bool("faults", false, "replay a faulted trace workload comparing original, debloated, and fallback deployments")
	faultSeed := fs.Int64("fault-seed", 7, "seed for the trace generator and fault injector (with -faults/-monitor/-rollout) and for the fleet population (with -fleet)")
	monitorFlag := fs.Bool("monitor", false, "replay a seeded trace workload under SLO burn-rate monitoring, original vs debloated")
	rolloutFlag := fs.Bool("rollout", false, "replay a seeded trace through the closed-loop deployment controller: canary, breaker, self-heal — vs static fallback and an oracle-clean baseline")
	fleetFlag := fs.Bool("fleet", false, "replay a synthetic corpus-shaped fleet day through the sharded virtual-time engine and print the fleet report (standalone; no app argument)")
	fleetFunctions := fs.Int("fleet-functions", 10000, "fleet population size (with -fleet/-chaos)")
	fleetWorkers := fs.Int("fleet-workers", 0, "fleet worker shards, 0 = GOMAXPROCS (with -fleet/-chaos; wall-clock only — report, scorecard, and every exposition are byte-identical at any count)")
	chaosSpec := fs.String("chaos", "", "replay the fleet day through the chaos engine: a semicolon-separated incident spec (e.g. 'zone-outage@9h+25m,zone=1'), @file to load one, or 'default' for the canonical incident day (implies -fleet; the report gains a resilience scorecard)")
	chaosMit := fs.String("chaos-mitigations", "all", "graceful-degradation mechanisms with -chaos: all, none, or a comma list of hedge,shed,breaker,budget")
	scorecardFile := fs.String("scorecard", "", "also write the resilience scorecard alone to this file (with -chaos)")
	var queries multiFlag
	fs.Var(&queries, "query", "evaluate an mql query over the fleet replay and print one JSON line (repeatable; implies -fleet and suppresses the text report)")
	queryStep := fs.Duration("query-step", 0, "evaluate -query as a range query at this step instead of a single instant")
	rulesFlag := fs.String("rules", "", "recording rules for the fleet replay, 'name = expr' separated by ';' (or @file to load from a file); evaluated incrementally per shard, byte-identical at any -fleet-workers")
	spanFlag := fs.String("span", "", "print the span subtree behind this exemplar span ID after the fleet replay (implies -fleet)")
	serveAddr := fs.String("serve", "", "after the fleet replay, serve /metrics, /query, /alerts, /dashboard, and /span on this address (implies -fleet)")
	serveFrameDelay := fs.Duration("serve-frame-delay", time.Second, "pacing between SSE dashboard frames on /dashboard")
	slo := fs.String("slo", "", "comma-separated SLO spec for -monitor/-fleet, e.g. p95=800ms,err=2%,costinv=2e-7 (default: thresholds derived from cold-start probes, or the fleet defaults)")
	list := fs.Bool("list", false, "list corpus applications and exit")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON file of the run (pipeline + platform spans over sim-time)")
	events := fs.String("events", "", "write the JSONL event log of the run")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot of the run")
	flame := fs.String("flame", "", "write a folded-stack flamegraph of the run (speedscope/flamegraph.pl)")
	openmetrics := fs.String("openmetrics", "", "write an OpenMetrics text exposition of the run's metrics")
	traceSummary := fs.Bool("trace-summary", false, "print a text digest of the recorded trace (top spans, phase percentiles)")

	args := os.Args[1:]
	var appName string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		appName = args[0]
		args = args[1:]
	}
	fs.Parse(args)

	// A non-positive worker count would otherwise reach the -all corpus
	// pool; reject it here so every misuse fails the same way instead of
	// silently degrading to sequential.
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "-workers must be >= 1 (got %d)\n", *workers)
		os.Exit(2)
	}

	if len(queries) > 0 || *rulesFlag != "" || *spanFlag != "" || *serveAddr != "" || *chaosSpec != "" {
		*fleetFlag = true // the query and chaos surfaces read a fleet replay
	}
	if *fleetFlag {
		if *fleetFunctions < 1 {
			fmt.Fprintf(os.Stderr, "-fleet-functions must be >= 1 (got %d)\n", *fleetFunctions)
			os.Exit(2)
		}
		if *fleetWorkers < 0 {
			fmt.Fprintf(os.Stderr, "-fleet-workers must be >= 0, 0 meaning GOMAXPROCS (got %d)\n", *fleetWorkers)
			os.Exit(2)
		}
		os.Exit(runFleet(fleetOptions{
			functions:    *fleetFunctions,
			workers:      *fleetWorkers,
			seed:         *faultSeed,
			sloSpec:      *slo,
			chaos:        *chaosSpec,
			mitigations:  *chaosMit,
			scorecard:    *scorecardFile,
			queries:      queries,
			queryStep:    *queryStep,
			rules:        *rulesFlag,
			span:         *spanFlag,
			serve:        *serveAddr,
			frameDelay:   *serveFrameDelay,
			trace:        *trace,
			events:       *events,
			metrics:      *metrics,
			flame:        *flame,
			openmetrics:  *openmetrics,
			traceSummary: *traceSummary,
		}))
	}

	if *all {
		var tr *obs.Tracer
		if *trace != "" || *events != "" || *metrics != "" || *flame != "" || *openmetrics != "" || *traceSummary {
			tr = obs.New()
		}
		code := runCorpus(*workers, tr)
		if tr != nil && code == 0 {
			if *traceSummary {
				fmt.Println()
				fmt.Print(tr.Summary())
			}
			if err := tr.WriteFiles(*trace, *events, *metrics, *flame, *openmetrics); err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			}
		}
		os.Exit(code)
	}

	if *list || (appName == "" && *dir == "") {
		fmt.Println("corpus applications:")
		for _, d := range appcorpus.Catalog() {
			fmt.Printf("  %-18s (%s; import %.2fs, exec %.2fs)\n", d.Name, d.Source, d.ImportS, d.ExecS)
		}
		if appName == "" && *dir == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var app *appspec.App
	if *dir != "" {
		loaded, err := imageio.LoadDir(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading %s: %v\n", *dir, err)
			os.Exit(1)
		}
		app = loaded
	} else {
		app = appcorpus.MustBuild(appName)
		appName = app.Name
	}
	if appName == "" {
		appName = app.Name
	}
	cfg := debloat.DefaultConfig()
	cfg.K = *k
	var err error
	cfg.Scoring, cfg.Granularity, err = parseModes(*scoring, *granularity)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// One tracer spans the whole run: the debloat pipeline on its virtual
	// timeline, then every platform measurement on the platform clock.
	var tr *obs.Tracer
	if *trace != "" || *events != "" || *metrics != "" || *flame != "" || *openmetrics != "" || *traceSummary {
		tr = obs.New()
	}
	cfg.Tracer = tr

	fmt.Printf("λ-trim: debloating %s (K=%d, scoring=%s, granularity=%s)\n\n",
		appName, cfg.K, cfg.Scoring, cfg.Granularity)

	res, err := debloat.Run(app, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "debloat failed: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("profiler ranking (top-K by marginal monetary cost):")
	for i, mp := range res.Profile.TopK(cfg.K) {
		fmt.Printf("  %2d. %-28s t=%8.3fs  m=%7.2fMB  score=%.4f\n",
			i+1, mp.Name, mp.ImportTime.Seconds(), mp.MemoryMB, mp.Score)
	}

	fmt.Println("\nper-module debloating results:")
	for _, m := range res.Modules {
		if m.Skipped != "" {
			fmt.Printf("  %-28s skipped (%s)\n", m.Module, m.Skipped)
			continue
		}
		fmt.Printf("  %-28s attrs %4d -> %4d  (removed %4d; %d oracle tests)\n",
			m.Module, m.AttrsBefore, m.AttrsAfter, len(m.Removed), m.DD.Tests)
	}
	fmt.Printf("\ndebloating used %d oracle runs, simulated time %.0fs\n",
		res.OracleRuns, res.DebloatTime.Seconds())

	platform := faas.DefaultConfig()
	platform.Tracer = tr
	before, err := faas.MeasureColdStart(res.Original, platform)
	if err != nil {
		fmt.Fprintf(os.Stderr, "measuring original: %v\n", err)
		os.Exit(1)
	}
	after, err := faas.MeasureColdStart(res.App, platform)
	if err != nil {
		fmt.Fprintf(os.Stderr, "measuring optimized: %v\n", err)
		os.Exit(1)
	}
	warmBefore, err := faas.MeasureWarmStart(res.Original, platform)
	if err != nil {
		fmt.Fprintf(os.Stderr, "measuring original warm: %v\n", err)
		os.Exit(1)
	}
	warmAfter, err := faas.MeasureWarmStart(res.App, platform)
	if err != nil {
		fmt.Fprintf(os.Stderr, "measuring optimized warm: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("\ncold-start comparison (original -> optimized):")
	fmt.Printf("  function init  %8.3fs -> %8.3fs\n", before.Init.Seconds(), after.Init.Seconds())
	fmt.Printf("  E2E latency    %8.3fs -> %8.3fs  (%.2fx)\n",
		before.E2E.Seconds(), after.E2E.Seconds(), before.E2E.Seconds()/after.E2E.Seconds())
	fmt.Printf("  warm E2E       %8.3fs -> %8.3fs\n", warmBefore.E2E.Seconds(), warmAfter.E2E.Seconds())
	fmt.Printf("  memory         %7.1fMB -> %7.1fMB\n", before.PeakMB, after.PeakMB)
	fmt.Printf("  cost / 100K    %8.2f$ -> %8.2f$\n", before.CostUSD*1e5, after.CostUSD*1e5)

	if *tune {
		// λ-trim's footprint reduction unlocks smaller, cheaper memory
		// configurations — power-tune both variants to quantify it.
		for _, variant := range []struct {
			label string
			app   *appspec.App
		}{{"original", res.Original}, {"optimized", res.App}} {
			sweep, err := powertune.Sweep(variant.app, platform, powertune.DefaultLadder(), 0.7)
			if err != nil {
				fmt.Fprintf(os.Stderr, "power tuning %s: %v\n", variant.label, err)
				os.Exit(1)
			}
			fmt.Printf("\n[%s] %s", variant.label, sweep.Render())
		}
	}

	if *faults {
		// Reliability replay: OOM enforcement, timeouts, throttling, and
		// injected transient faults over a bursty trace workload, with
		// client-side retries — original vs. debloated vs. fallback.
		rcfg := experiments.DefaultReliabilityConfig()
		rcfg.App = appName
		rcfg.Seed = *faultSeed
		rel, err := experiments.ReliabilityCompare(res.Original, res.App, platform, rcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reliability replay: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(rel.Render())
	}

	if *monitorFlag {
		// SLO-monitored replay: the seeded trace workload against the
		// original and debloated deployments under identical objectives,
		// with burn-rate alerts and per-phase cost attribution.
		mcfg := experiments.DefaultMonitorConfig()
		mcfg.App = appName
		mcfg.Seed = *faultSeed
		if *slo != "" {
			slos, err := monitor.ParseSLOs(*slo)
			if err != nil {
				fmt.Fprintf(os.Stderr, "parsing -slo: %v\n", err)
				os.Exit(2)
			}
			mcfg.SLOs = slos
		}
		mon, err := experiments.MonitorCompare(res.Original, res.App, res.Profile, platform, mcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "monitored replay: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(mon.Render())
	}

	if *rolloutFlag {
		// Closed-loop rollout replay: the app is deployed as the storm
		// member — mid-trace its traffic shifts to the advanced mode, and
		// the controller's canary/breaker/self-heal loop competes with the
		// paper's static fallback wrapper and an oracle-clean baseline.
		ocfg := experiments.DefaultRolloutConfig()
		ocfg.StormApps = []string{appName}
		ocfg.CleanApps = nil
		ocfg.Seed = *faultSeed
		roll, err := experiments.RolloutCompare([]*debloat.Result{res}, nil, platform, cfg, ocfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rollout replay: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(roll.Render())
	}

	if *out != "" {
		if err := imageio.SaveDir(res.App, *out); err != nil {
			fmt.Fprintf(os.Stderr, "exporting optimized image: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\noptimized image exported to %s\n", *out)
	}

	if tr != nil {
		if *traceSummary {
			fmt.Println()
			fmt.Print(tr.Summary())
		}
		if err := tr.WriteFiles(*trace, *events, *metrics, *flame, *openmetrics); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// parseModes maps the -scoring and -granularity values onto the pipeline's
// profiler ranking and DD granularity. An unknown value is an error naming
// the valid ones.
func parseModes(scoring, granularity string) (profiler.Scoring, debloat.Granularity, error) {
	var s profiler.Scoring
	switch scoring {
	case "combined":
		s = profiler.Combined
	case "time":
		s = profiler.TimeOnly
	case "memory":
		s = profiler.MemoryOnly
	case "random":
		s = profiler.Random
	default:
		return 0, 0, fmt.Errorf("unknown -scoring %q (want combined|time|memory|random)", scoring)
	}
	switch granularity {
	case "attr":
		return s, debloat.AttrGranularity, nil
	case "stmt":
		return s, debloat.StmtGranularity, nil
	}
	return 0, 0, fmt.Errorf("unknown -granularity %q (want attr|stmt)", granularity)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

type fleetOptions struct {
	functions    int
	workers      int
	seed         int64
	sloSpec      string
	chaos        string
	mitigations  string
	scorecard    string
	queries      []string
	queryStep    time.Duration
	rules        string
	span         string
	serve        string
	frameDelay   time.Duration
	trace        string
	events       string
	metrics      string
	flame        string
	openmetrics  string
	traceSummary bool
}

// runFleet is the -fleet mode: generate a corpus-shaped synthetic
// population (half original, half debloated deployments), replay its day
// through the sharded fleet engine, and print the merged report. The
// telemetry flags reuse the run's exporters: -openmetrics gets the fleet
// exposition directly, while -trace/-events/-metrics/-flame export the
// replay's bounded span tree and merged counters through a tracer. The
// query surface (-query/-rules/-span/-serve) turns on labeled series and
// reads the same merged result: every output stays byte-identical at any
// -fleet-workers count.
func runFleet(opt fleetOptions) int {
	pc := fleet.DefaultPopConfig()
	pc.Functions = opt.functions
	pc.Seed = opt.seed

	querying := len(opt.queries) > 0 || opt.rules != "" || opt.span != "" || opt.serve != ""
	cfg := fleet.Config{
		Workers:        opt.workers,
		Period:         pc.Period,
		SLOs:           fleet.DefaultSLOs(),
		DashboardEvery: 4 * time.Hour,
		Seed:           pc.Seed,
		Pricing:        pc.Pricing,
		LabelSeries:    querying,
	}
	if opt.chaos != "" {
		spec := opt.chaos
		if strings.HasPrefix(spec, "@") {
			data, err := os.ReadFile(spec[1:])
			if err != nil {
				fmt.Fprintf(os.Stderr, "reading -chaos: %v\n", err)
				return 2
			}
			spec = strings.TrimSpace(string(data))
		}
		var incidents []chaos.Incident
		if spec == "default" {
			incidents = chaos.DefaultIncidentDay()
		} else {
			var err error
			incidents, err = chaos.ParseIncidents(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "parsing -chaos: %v\n", err)
				return 2
			}
		}
		mit, err := chaos.ParseMitigations(opt.mitigations)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parsing -chaos-mitigations: %v\n", err)
			return 2
		}
		pc.ArmMix = fleet.ChaosArmMix()
		cfg.Chaos = &chaos.Config{Seed: pc.Seed, Incidents: incidents, Mitigations: mit}
		cfg.SLOs = fleet.DefaultChaosSLOs()
	}
	if opt.sloSpec != "" {
		slos, err := monitor.ParseSLOs(opt.sloSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parsing -slo: %v\n", err)
			return 2
		}
		cfg.SLOs = slos
	}
	if opt.rules != "" {
		src := opt.rules
		if strings.HasPrefix(src, "@") {
			data, err := os.ReadFile(src[1:])
			if err != nil {
				fmt.Fprintf(os.Stderr, "reading -rules: %v\n", err)
				return 2
			}
			src = string(data)
		}
		rules, err := query.ParseRules(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parsing -rules: %v\n", err)
			return 2
		}
		cfg.Rules = rules
	}

	res, err := fleet.Replay(cfg, fleet.GeneratePopulation(pc, nil))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet replay: %v\n", err)
		return 1
	}

	// -query suppresses the text report: stdout is then exactly one JSON
	// line per query, suitable for golden comparison with cmp.
	if len(opt.queries) > 0 {
		eng := res.QueryEngine()
		for _, q := range opt.queries {
			var out string
			var err error
			if opt.queryStep > 0 {
				out, err = eng.RangeJSON(q, 0, -1, opt.queryStep)
			} else {
				out, err = eng.InstantJSON(q, -1)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "query %q: %v\n", q, err)
				return 2
			}
			fmt.Println(out)
		}
	} else {
		fmt.Print(res.Render())
	}

	if opt.openmetrics != "" {
		if err := os.WriteFile(opt.openmetrics, res.OpenMetrics(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if opt.scorecard != "" {
		if res.Chaos == nil {
			fmt.Fprintln(os.Stderr, "-scorecard needs -chaos (no chaos replay ran)")
			return 2
		}
		if err := os.WriteFile(opt.scorecard, []byte(res.Scorecard()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	var tr *obs.Tracer
	if opt.span != "" || opt.serve != "" || opt.trace != "" || opt.events != "" ||
		opt.metrics != "" || opt.flame != "" || opt.traceSummary {
		tr = obs.New()
		res.EmitSpans(tr)
	}
	if opt.span != "" {
		s := tr.FindSpan(opt.span)
		if s == nil {
			fmt.Fprintf(os.Stderr, "no span with id %s (IDs ride the exemplar annotations in -openmetrics output)\n", opt.span)
			return 1
		}
		fmt.Print(s.Subtree())
	}
	if opt.traceSummary {
		fmt.Println()
		fmt.Print(tr.Summary())
	}
	if tr != nil {
		if err := tr.WriteFiles(opt.trace, opt.events, opt.metrics, opt.flame, ""); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	if opt.serve != "" {
		site := &serve.Site{
			OpenMetrics: res.OpenMetrics,
			Engine:      res.QueryEngine(),
			AlertLog:    res.AlertLog(),
			Frames:      res.Frames,
			FindSpan:    tr.FindSpan,
			FrameDelay:  opt.frameDelay,
		}
		fmt.Fprintf(os.Stderr, "serving fleet replay on %s (/metrics /query /alerts /dashboard /span)\n", opt.serve)
		if err := site.ListenAndServe(opt.serve); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// runCorpus is the -all mode: debloat the whole corpus on a worker pool and
// print a before/after cold-start summary in Table 1 order.
func runCorpus(workers int, tr *obs.Tracer) int {
	suite := experiments.NewSuite()
	suite.Platform.Tracer = tr

	fmt.Printf("λ-trim: debloating the full corpus (%d workers, default configuration)\n\n", workers)
	if err := suite.DebloatAll(workers); err != nil {
		fmt.Fprintf(os.Stderr, "corpus debloat: %v\n", err)
		return 1
	}

	fmt.Printf("%-18s %9s %9s %10s %10s %9s %9s\n",
		"Application", "Init", "→Init", "ColdE2E", "→ColdE2E", "Mem(MB)", "→Mem(MB)")
	for _, name := range experiments.AllNames() {
		res, err := suite.Debloat(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		before, err := faas.MeasureColdStart(res.Original, suite.Platform)
		if err != nil {
			fmt.Fprintf(os.Stderr, "measuring %s original: %v\n", name, err)
			return 1
		}
		after, err := faas.MeasureColdStart(res.App, suite.Platform)
		if err != nil {
			fmt.Fprintf(os.Stderr, "measuring %s optimized: %v\n", name, err)
			return 1
		}
		fmt.Printf("%-18s %8.2fs %8.2fs %9.2fs %9.2fs %9.1f %9.1f\n",
			name,
			before.Init.Seconds(), after.Init.Seconds(),
			before.E2E.Seconds(), after.E2E.Seconds(),
			before.PeakMB, after.PeakMB)
	}
	return 0
}
