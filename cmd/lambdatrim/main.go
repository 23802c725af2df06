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
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one command line: the application named before the flags, if
// any, and every flag's value.
type options struct {
	app                  string
	k                    int
	scoring, granularity string
	workers              int
	all, tune, faults    bool
	dir, out             string
	seed                 int64
	monitor, rollout     bool
	fleet                bool
	fleetFunctions       int
	fleetWorkers         int
	chaos, mitigations   string
	scorecard            string
	queries              multiFlag
	queryStep            time.Duration
	rules, span, serve   string
	frameDelay           time.Duration
	slo                  string
	list                 bool
	trace, events        string
	metrics, flame       string
	openmetrics          string
	traceSummary         bool
}

// run is the command. It parses args, rejects a bad invocation before any
// work starts, and runs one mode (-fleet, -all, -list, or one application),
// writing the report to stdout and diagnostics to stderr. It returns the
// exit code: 0 on success, 1 when the run fails, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("lambdatrim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.k, "k", 20, "number of top-ranked modules to debloat")
	fs.StringVar(&o.scoring, "scoring", "combined", "profiler scoring: combined|time|memory|random")
	fs.StringVar(&o.granularity, "granularity", "attr", "DD granularity: attr|stmt")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "apps debloated at once with -all (wall-clock only; results are identical at any count)")
	fs.BoolVar(&o.all, "all", false, "debloat the entire corpus in parallel and print a summary table")
	fs.StringVar(&o.dir, "dir", "", "load the application from this directory instead of the corpus")
	fs.StringVar(&o.out, "out", "", "export the optimized image to this directory")
	fs.BoolVar(&o.tune, "tune", false, "power-tune memory configurations before and after debloating")
	fs.BoolVar(&o.faults, "faults", false, "replay a faulted trace workload comparing original, debloated, and fallback deployments")
	fs.Int64Var(&o.seed, "fault-seed", 7, "seed for the trace generator and fault injector (with -faults/-monitor/-rollout) and for the fleet population (with -fleet)")
	fs.BoolVar(&o.monitor, "monitor", false, "replay a seeded trace workload under SLO burn-rate monitoring, original vs debloated")
	fs.BoolVar(&o.rollout, "rollout", false, "replay a seeded trace through the closed-loop deployment controller: canary, breaker, self-heal — vs static fallback and an oracle-clean baseline")
	fs.BoolVar(&o.fleet, "fleet", false, "replay a synthetic corpus-shaped fleet day through the sharded virtual-time engine and print the fleet report (standalone; no app argument)")
	fs.IntVar(&o.fleetFunctions, "fleet-functions", 10000, "fleet population size (with -fleet/-chaos)")
	fs.IntVar(&o.fleetWorkers, "fleet-workers", 0, "fleet worker shards, 0 = GOMAXPROCS (with -fleet/-chaos; wall-clock only — report, scorecard, and every exposition are byte-identical at any count)")
	fs.StringVar(&o.chaos, "chaos", "", "replay the fleet day through the chaos engine: a semicolon-separated incident spec (e.g. 'zone-outage@9h+25m,zone=1'), @file to load one, or 'default' for the canonical incident day (implies -fleet; the report gains a resilience scorecard)")
	fs.StringVar(&o.mitigations, "chaos-mitigations", "all", "graceful-degradation mechanisms with -chaos: all, none, or a comma list of hedge,shed,breaker,budget")
	fs.StringVar(&o.scorecard, "scorecard", "", "also write the resilience scorecard alone to this file (with -chaos)")
	fs.Var(&o.queries, "query", "evaluate an mql query over the fleet replay and print one JSON line (repeatable; implies -fleet and suppresses the text report)")
	fs.DurationVar(&o.queryStep, "query-step", 0, "evaluate -query as a range query at this step instead of a single instant")
	fs.StringVar(&o.rules, "rules", "", "recording rules for the fleet replay, 'name = expr' separated by ';' (or @file to load from a file); evaluated incrementally per shard, byte-identical at any -fleet-workers")
	fs.StringVar(&o.span, "span", "", "print the span subtree behind this exemplar span ID after the fleet replay (implies -fleet)")
	fs.StringVar(&o.serve, "serve", "", "after the fleet replay, serve /metrics, /query, /alerts, /dashboard, and /span on this address (implies -fleet)")
	fs.DurationVar(&o.frameDelay, "serve-frame-delay", time.Second, "pacing between SSE dashboard frames on /dashboard")
	fs.StringVar(&o.slo, "slo", "", "comma-separated SLO spec for -monitor/-fleet, e.g. p95=800ms,err=2%,costinv=2e-7 (default: thresholds derived from cold-start probes, or the fleet defaults)")
	fs.BoolVar(&o.list, "list", false, "list corpus applications and exit")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON file of the run (pipeline + platform spans over sim-time)")
	fs.StringVar(&o.events, "events", "", "write the JSONL event log of the run")
	fs.StringVar(&o.metrics, "metrics", "", "write a JSON metrics snapshot of the run")
	fs.StringVar(&o.flame, "flame", "", "write a folded-stack flamegraph of the run (speedscope/flamegraph.pl)")
	fs.StringVar(&o.openmetrics, "openmetrics", "", "write an OpenMetrics text exposition of the run's metrics")
	fs.BoolVar(&o.traceSummary, "trace-summary", false, "print a text digest of the recorded trace (top spans, phase percentiles)")

	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		o.app, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// Parsing stops at the first argument that is not a flag, so anything
	// left over would silently drop every flag after it.
	if fs.NArg() > 0 {
		return usageError(stderr, "unexpected argument %q (usage: lambdatrim <app> [flags])", fs.Arg(0))
	}
	// A non-positive worker count would otherwise reach the -all corpus
	// pool; reject it here so every misuse fails the same way instead of
	// silently degrading to sequential.
	if o.workers < 1 {
		return usageError(stderr, "-workers must be >= 1 (got %d)", o.workers)
	}

	if len(o.queries) > 0 || o.rules != "" || o.span != "" || o.serve != "" || o.chaos != "" {
		o.fleet = true // the query and chaos surfaces read a fleet replay
	}
	if msg := o.conflict(fs); msg != "" {
		return usageError(stderr, "%s", msg)
	}
	switch {
	case o.fleet:
		return runFleet(&o, stdout, stderr)
	case o.all:
		return runCorpus(&o, stdout, stderr)
	case o.list || (o.app == "" && o.dir == ""):
		fmt.Fprintln(stdout, "corpus applications:")
		for _, d := range appcorpus.Catalog() {
			fmt.Fprintf(stdout, "  %-18s (%s; import %.2fs, exec %.2fs)\n", d.Name, d.Source, d.ImportS, d.ExecS)
		}
		if !o.list {
			return 2 // a bare lambdatrim: the list stands for the usage
		}
		return 0
	}
	return runApp(&o, stdout, stderr)
}

// conflict names the first flag set on the command line that does nothing
// in the chosen mode, or returns "" when there is none. Only flags given
// explicitly count (fs.Visit), so a default never conflicts.
func (o *options) conflict(fs *flag.FlagSet) string {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mode := ""
	switch {
	case o.fleet:
		mode = "in fleet mode"
	case o.all:
		mode = "with -all"
	}
	// Each flag a rule names does nothing, for the rule's reason, when the
	// rule's condition holds.
	for _, r := range []struct {
		flags []string
		bad   bool
		why   string
	}{
		{[]string{"list"}, len(set) > 1 || o.app != "", "takes no other flag and no app name"},
		{[]string{"chaos-mitigations", "scorecard"}, o.chaos == "", "needs -chaos"},
		{[]string{"query-step"}, len(o.queries) == 0, "needs -query"},
		// These shape one application's debloat and its replays.
		{[]string{"k", "out", "scoring", "granularity", "dir", "tune", "faults", "monitor", "rollout"}, mode != "", "does nothing " + mode},
		{[]string{"all"}, o.fleet, "does nothing in fleet mode"},
		{[]string{"workers"}, !o.all, "needs -all"},
		{[]string{"fleet-functions", "fleet-workers"}, !o.fleet, "needs fleet mode (-fleet, -chaos, -query, -rules, -span or -serve)"},
		{[]string{"serve-frame-delay"}, o.serve == "", "needs -serve"},
		{[]string{"slo"}, !o.fleet && !o.monitor, "needs -monitor or fleet mode"},
		{[]string{"fault-seed"}, !o.fleet && !o.faults && !o.monitor && !o.rollout, "needs -faults, -monitor, -rollout or fleet mode"},
	} {
		for _, name := range r.flags {
			if r.bad && set[name] {
				return fmt.Sprintf("-%s %s", name, r.why)
			}
		}
	}
	if mode != "" && o.app != "" {
		return fmt.Sprintf("the app name %q does nothing %s", o.app, mode)
	}
	return ""
}

// runApp is the default mode: debloat one application (a corpus app, or
// one loaded with -dir), print its ranking, per-module results and
// cold-start comparison, then run each replay its flags ask for.
func runApp(o *options, stdout, stderr io.Writer) int {
	cfg := debloat.DefaultConfig()
	cfg.K = o.k
	var err error
	if cfg.Scoring, cfg.Granularity, err = parseModes(o.scoring, o.granularity); err != nil {
		return usageError(stderr, "%v", err)
	}
	mcfg := experiments.DefaultMonitorConfig()
	if o.slo != "" {
		if mcfg.SLOs, err = monitor.ParseSLOs(o.slo); err != nil {
			return usageError(stderr, "parsing -slo: %v", err)
		}
	}
	var app *appspec.App
	if o.dir != "" {
		if app, err = imageio.LoadDir(o.dir); err != nil {
			return runError(stderr, "loading %s: %v", o.dir, err)
		}
	} else if def, ok := appcorpus.Lookup(o.app); ok {
		app = def.Build()
	} else {
		return usageError(stderr, "unknown app %q (lambdatrim -list names the corpus)", o.app)
	}
	name := o.app
	if name == "" {
		name = app.Name
	}

	// One tracer spans the whole run: the debloat pipeline on its virtual
	// timeline, then every platform measurement on the platform clock.
	tr := o.newTracer(o.openmetrics != "")
	cfg.Tracer = tr

	fmt.Fprintf(stdout, "λ-trim: debloating %s (K=%d, scoring=%s, granularity=%s)\n\n",
		name, cfg.K, cfg.Scoring, cfg.Granularity)

	res, err := debloat.Run(app, cfg)
	if err != nil {
		return runError(stderr, "debloat failed: %v", err)
	}

	fmt.Fprintln(stdout, "profiler ranking (top-K by marginal monetary cost):")
	for i, mp := range res.Profile.TopK(cfg.K) {
		fmt.Fprintf(stdout, "  %2d. %-28s t=%8.3fs  m=%7.2fMB  score=%.4f\n",
			i+1, mp.Name, mp.ImportTime.Seconds(), mp.MemoryMB, mp.Score)
	}

	fmt.Fprintln(stdout, "\nper-module debloating results:")
	for _, m := range res.Modules {
		if m.Skipped != "" {
			fmt.Fprintf(stdout, "  %-28s skipped (%s)\n", m.Module, m.Skipped)
			continue
		}
		fmt.Fprintf(stdout, "  %-28s attrs %4d -> %4d  (removed %4d; %d oracle tests)\n",
			m.Module, m.AttrsBefore, m.AttrsAfter, len(m.Removed), m.DD.Tests)
	}
	fmt.Fprintf(stdout, "\ndebloating used %d oracle runs, simulated time %.0fs\n",
		res.OracleRuns, res.DebloatTime.Seconds())

	platform := faas.DefaultConfig()
	platform.Tracer = tr
	before, err := faas.MeasureColdStart(res.Original, platform)
	if err != nil {
		return runError(stderr, "measuring original: %v", err)
	}
	after, err := faas.MeasureColdStart(res.App, platform)
	if err != nil {
		return runError(stderr, "measuring optimized: %v", err)
	}
	warmBefore, err := faas.MeasureWarmStart(res.Original, platform)
	if err != nil {
		return runError(stderr, "measuring original warm: %v", err)
	}
	warmAfter, err := faas.MeasureWarmStart(res.App, platform)
	if err != nil {
		return runError(stderr, "measuring optimized warm: %v", err)
	}
	fmt.Fprintln(stdout, "\ncold-start comparison (original -> optimized):")
	fmt.Fprintf(stdout, "  function init  %8.3fs -> %8.3fs\n", before.Init.Seconds(), after.Init.Seconds())
	fmt.Fprintf(stdout, "  E2E latency    %8.3fs -> %8.3fs  (%.2fx)\n",
		before.E2E.Seconds(), after.E2E.Seconds(), before.E2E.Seconds()/after.E2E.Seconds())
	fmt.Fprintf(stdout, "  warm E2E       %8.3fs -> %8.3fs\n", warmBefore.E2E.Seconds(), warmAfter.E2E.Seconds())
	fmt.Fprintf(stdout, "  memory         %7.1fMB -> %7.1fMB\n", before.PeakMB, after.PeakMB)
	fmt.Fprintf(stdout, "  cost / 100K    %8.2f$ -> %8.2f$\n", before.CostUSD*1e5, after.CostUSD*1e5)

	if o.tune {
		// λ-trim's footprint reduction unlocks smaller, cheaper memory
		// configurations — power-tune both variants to quantify it.
		for _, variant := range []struct {
			label string
			app   *appspec.App
		}{{"original", res.Original}, {"optimized", res.App}} {
			sweep, err := powertune.Sweep(variant.app, platform, powertune.DefaultLadder(), 0.7)
			if err != nil {
				return runError(stderr, "power tuning %s: %v", variant.label, err)
			}
			fmt.Fprintf(stdout, "\n[%s] %s", variant.label, sweep.Render())
		}
	}

	if o.faults {
		// Reliability replay: OOM enforcement, timeouts, throttling, and
		// injected transient faults over a bursty trace workload, with
		// client-side retries — original vs. debloated vs. fallback.
		rcfg := experiments.DefaultReliabilityConfig()
		rcfg.App = name
		rcfg.Seed = o.seed
		rel, err := experiments.ReliabilityCompare(res.Original, res.App, platform, rcfg)
		if err != nil {
			return runError(stderr, "reliability replay: %v", err)
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rel.Render())
	}

	if o.monitor {
		// SLO-monitored replay: the seeded trace workload against the
		// original and debloated deployments under identical objectives,
		// with burn-rate alerts and per-phase cost attribution.
		mcfg.App = name
		mcfg.Seed = o.seed
		mon, err := experiments.MonitorCompare(res.Original, res.App, res.Profile, platform, mcfg)
		if err != nil {
			return runError(stderr, "monitored replay: %v", err)
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, mon.Render())
	}

	if o.rollout {
		// Closed-loop rollout replay: the app is deployed as the storm
		// member — mid-trace its traffic shifts to the advanced mode, and
		// the controller's canary/breaker/self-heal loop competes with the
		// paper's static fallback wrapper and an oracle-clean baseline.
		ocfg := experiments.DefaultRolloutConfig()
		ocfg.StormApps = []string{name}
		ocfg.CleanApps = nil
		ocfg.Seed = o.seed
		roll, err := experiments.RolloutCompare([]*debloat.Result{res}, nil, platform, cfg, ocfg)
		if err != nil {
			return runError(stderr, "rollout replay: %v", err)
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, roll.Render())
	}

	if o.out != "" {
		if err := imageio.SaveDir(res.App, o.out); err != nil {
			return runError(stderr, "exporting optimized image: %v", err)
		}
		fmt.Fprintf(stdout, "\noptimized image exported to %s\n", o.out)
	}
	return o.finish(tr, o.openmetrics, stdout, stderr)
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

// newTracer returns a recording tracer when a telemetry flag asks for one
// or the mode needs one anyway, and nil otherwise, so an untraced run
// records nothing.
func (o *options) newTracer(need bool) *obs.Tracer {
	if need || o.trace != "" || o.events != "" || o.metrics != "" || o.flame != "" || o.traceSummary {
		return obs.New()
	}
	return nil
}

// finish ends a traced run: the -trace-summary digest on stdout, then each
// requested exporter file. openmetrics is the tracer's exposition path, ""
// when the mode writes its own. A nil tracer has nothing to finish.
func (o *options) finish(tr *obs.Tracer, openmetrics string, stdout, stderr io.Writer) int {
	if tr == nil {
		return 0
	}
	if o.traceSummary {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tr.Summary())
	}
	if err := tr.WriteFiles(o.trace, o.events, o.metrics, o.flame, openmetrics); err != nil {
		return runError(stderr, "%v", err)
	}
	return 0
}

// readSpec returns a spec flag's value, or for @file the file's contents
// without surrounding whitespace.
func readSpec(flagName, v string) (string, error) {
	path, ok := strings.CutPrefix(v, "@")
	if !ok {
		return v, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("reading -%s: %w", flagName, err)
	}
	return strings.TrimSpace(string(data)), nil
}

// usageError reports a bad invocation on stderr and returns its exit code,
// 2, the flag package's code for a bad flag.
func usageError(stderr io.Writer, format string, a ...any) int {
	fmt.Fprintf(stderr, format+"\n", a...)
	return 2
}

// runError reports a failed run on stderr and returns its exit code, 1.
func runError(stderr io.Writer, format string, a ...any) int {
	fmt.Fprintf(stderr, format+"\n", a...)
	return 1
}

// runFleet is the -fleet mode: generate a corpus-shaped synthetic
// population (half original, half debloated deployments), replay its day
// through the sharded fleet engine, and print the merged report. The
// telemetry flags reuse the run's exporters: -openmetrics gets the fleet
// exposition directly, while -trace/-events/-metrics/-flame export the
// replay's bounded span tree and its counters through a tracer. The
// query surface (-query/-rules/-span/-serve) turns on labeled series and
// reads the same merged result: every output stays byte-identical at any
// -fleet-workers count.
func runFleet(o *options, stdout, stderr io.Writer) int {
	if o.fleetFunctions < 1 {
		return usageError(stderr, "-fleet-functions must be >= 1 (got %d)", o.fleetFunctions)
	}
	if o.fleetWorkers < 0 {
		return usageError(stderr, "-fleet-workers must be >= 0, 0 meaning GOMAXPROCS (got %d)", o.fleetWorkers)
	}
	if o.queryStep < 0 {
		return usageError(stderr, "-query-step must be >= 0, 0 meaning an instant query (got %v)", o.queryStep)
	}
	for _, q := range o.queries {
		if _, err := query.Parse(q); err != nil {
			return usageError(stderr, "query %q: %v", q, err)
		}
	}

	pc := fleet.DefaultPopConfig()
	pc.Functions = o.fleetFunctions
	pc.Seed = o.seed

	querying := len(o.queries) > 0 || o.rules != "" || o.span != "" || o.serve != ""
	cfg := fleet.Config{
		Workers:        o.fleetWorkers,
		Period:         pc.Period,
		SLOs:           fleet.DefaultSLOs(),
		DashboardEvery: 4 * time.Hour,
		Seed:           pc.Seed,
		Pricing:        pc.Pricing,
		LabelSeries:    querying,
	}
	if o.chaos != "" {
		spec, err := readSpec("chaos", o.chaos)
		if err != nil {
			return usageError(stderr, "%v", err)
		}
		var incidents []chaos.Incident
		if spec == "default" {
			incidents = chaos.DefaultIncidentDay()
		} else if incidents, err = chaos.ParseIncidents(spec); err != nil {
			return usageError(stderr, "parsing -chaos: %v", err)
		}
		mit, err := chaos.ParseMitigations(o.mitigations)
		if err != nil {
			return usageError(stderr, "parsing -chaos-mitigations: %v", err)
		}
		pc.ArmMix = fleet.ChaosArmMix()
		cfg.Chaos = &chaos.Config{Seed: pc.Seed, Incidents: incidents, Mitigations: mit}
		cfg.SLOs = fleet.DefaultChaosSLOs()
	}
	if o.slo != "" {
		slos, err := monitor.ParseSLOs(o.slo)
		if err != nil {
			return usageError(stderr, "parsing -slo: %v", err)
		}
		cfg.SLOs = slos
	}
	if o.rules != "" {
		src, err := readSpec("rules", o.rules)
		if err != nil {
			return usageError(stderr, "%v", err)
		}
		if cfg.Rules, err = query.ParseRules(src); err != nil {
			return usageError(stderr, "parsing -rules: %v", err)
		}
	}

	res, err := fleet.Replay(cfg, fleet.GeneratePopulation(pc, nil))
	if err != nil {
		return runError(stderr, "fleet replay: %v", err)
	}

	// -query suppresses the text report: stdout is then exactly one JSON
	// line per query, suitable for golden comparison with cmp.
	if len(o.queries) > 0 {
		eng := res.QueryEngine()
		for _, q := range o.queries {
			var out string
			var err error
			if o.queryStep > 0 {
				out, err = eng.RangeJSON(q, 0, -1, o.queryStep)
			} else {
				out, err = eng.InstantJSON(q, -1)
			}
			if err != nil {
				return usageError(stderr, "query %q: %v", q, err)
			}
			fmt.Fprintln(stdout, out)
		}
	} else {
		fmt.Fprint(stdout, res.Render())
	}

	if o.openmetrics != "" {
		if err := os.WriteFile(o.openmetrics, res.OpenMetrics(), 0o644); err != nil {
			return runError(stderr, "%v", err)
		}
	}
	if o.scorecard != "" {
		if err := os.WriteFile(o.scorecard, []byte(res.Scorecard()), 0o644); err != nil {
			return runError(stderr, "%v", err)
		}
	}

	tr := o.newTracer(o.span != "" || o.serve != "")
	res.EmitSpans(tr)
	if o.span != "" {
		s := tr.FindSpan(o.span)
		if s == nil {
			return runError(stderr, "no span with id %s (IDs ride the exemplar annotations in -openmetrics output)", o.span)
		}
		fmt.Fprint(stdout, s.Subtree())
	}
	if code := o.finish(tr, "", stdout, stderr); code != 0 {
		return code
	}

	if o.serve != "" {
		site := &serve.Site{
			OpenMetrics: res.OpenMetrics,
			Engine:      res.QueryEngine(),
			AlertLog:    res.AlertLog(),
			Frames:      res.Frames,
			FindSpan:    tr.FindSpan,
			FrameDelay:  o.frameDelay,
		}
		// Ctrl-C shuts the server down and ends the run with exit 0.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		fmt.Fprintf(stderr, "serving fleet replay on %s (/metrics /query /alerts /dashboard /span); Ctrl-C stops\n", o.serve)
		if err := site.ListenAndServe(ctx, o.serve); err != nil {
			return runError(stderr, "%v", err)
		}
		fmt.Fprintln(stderr, "server shut down")
	}
	return 0
}

// runCorpus is the -all mode: debloat the whole corpus on a worker pool and
// print a before/after cold-start summary in Table 1 order.
func runCorpus(o *options, stdout, stderr io.Writer) int {
	tr := o.newTracer(o.openmetrics != "")
	suite := experiments.NewSuite()
	suite.Platform.Tracer = tr

	fmt.Fprintf(stdout, "λ-trim: debloating the full corpus (%d workers, default configuration)\n\n", o.workers)
	if err := suite.DebloatAll(o.workers); err != nil {
		return runError(stderr, "corpus debloat: %v", err)
	}

	fmt.Fprintf(stdout, "%-18s %9s %9s %10s %10s %9s %9s\n",
		"Application", "Init", "→Init", "ColdE2E", "→ColdE2E", "Mem(MB)", "→Mem(MB)")
	for _, name := range experiments.AllNames() {
		res, err := suite.Debloat(name)
		if err != nil {
			return runError(stderr, "%s: %v", name, err)
		}
		before, err := faas.MeasureColdStart(res.Original, suite.Platform)
		if err != nil {
			return runError(stderr, "measuring %s original: %v", name, err)
		}
		after, err := faas.MeasureColdStart(res.App, suite.Platform)
		if err != nil {
			return runError(stderr, "measuring %s optimized: %v", name, err)
		}
		fmt.Fprintf(stdout, "%-18s %8.2fs %8.2fs %9.2fs %9.2fs %9.1f %9.1f\n",
			name,
			before.Init.Seconds(), after.Init.Seconds(),
			before.E2E.Seconds(), after.E2E.Seconds(),
			before.PeakMB, after.PeakMB)
	}
	return o.finish(tr, o.openmetrics, stdout, stderr)
}
