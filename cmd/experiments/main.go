// Command experiments regenerates the paper's tables and figures as text.
//
// Usage:
//
//	experiments [flags] [target ...]
//	experiments -list
//
// Targets are listed by -list; with no target (or "all") every driver runs
// in presentation order (a few seconds: the corpus is debloated once and
// reused across figures). Flags must precede targets.
//
// When the full target set runs, the corpus is debloated up front on
// -workers goroutines (default: GOMAXPROCS). Parallelism and the shared
// import-memoization caches only change real wall-clock time: the rendered
// tables, traces, and metrics are byte-identical to a sequential, uncached
// run (see DESIGN.md §9). -memo=false disables memoization, e.g. to verify
// that invariant or to profile the uncached pipeline.
//
// With -trace/-events/-metrics, the run records deterministic telemetry
// over simulated time and writes it to the given files (Chrome trace-event
// JSON, JSONL event log, and a metrics snapshot respectively). With
// -cpuprofile/-memprofile, real-clock pprof profiles of the run itself are
// written (go tool pprof).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

type renderer interface{ Render() string }

// drivers maps each target to its suite method, in presentation order.
// This slice is the single source of truth: the usage string, -list, and
// the default "all" set all derive from it.
var drivers = []struct {
	name string
	desc string
	run  func(*experiments.Suite) (renderer, error)
}{
	{"fig1", "cold/warm start latency anatomy", func(s *experiments.Suite) (renderer, error) { return s.Figure1() }},
	{"table1", "corpus applications", func(s *experiments.Suite) (renderer, error) { return s.Table1() }},
	{"fig2", "cost breakdown per application", func(s *experiments.Suite) (renderer, error) { return s.Figure2() }},
	{"fig8", "initialization time reduction", func(s *experiments.Suite) (renderer, error) { return s.Figure8() }},
	{"table2", "debloating outcomes", func(s *experiments.Suite) (renderer, error) { return s.Table2() }},
	{"table2x", "debloating outcomes (extended)", func(s *experiments.Suite) (renderer, error) { return s.Table2Ext() }},
	{"fig9", "scoring-method ablation", func(s *experiments.Suite) (renderer, error) { return s.Figure9() }},
	{"table3", "debloating cost", func(s *experiments.Suite) (renderer, error) { return s.Table3() }},
	{"fig10", "memory footprint reduction", func(s *experiments.Suite) (renderer, error) { return s.Figure10() }},
	{"fig11", "monetary cost reduction", func(s *experiments.Suite) (renderer, error) { return s.Figure11() }},
	{"fig12", "K sensitivity", func(s *experiments.Suite) (renderer, error) { return s.Figure12() }},
	{"fig13", "granularity ablation", func(s *experiments.Suite) (renderer, error) { return s.Figure13() }},
	{"fig14", "call-graph protection ablation", func(s *experiments.Suite) (renderer, error) { return s.Figure14() }},
	{"table4", "SnapStart comparison", func(s *experiments.Suite) (renderer, error) { return s.Table4() }},
	{"ext-tune", "power-tuning extension", func(s *experiments.Suite) (renderer, error) { return s.ExtPowerTune() }},
	{"reliability", "faulted replay comparison", func(s *experiments.Suite) (renderer, error) { return s.Reliability() }},
	{"monitor", "SLO-monitored replay comparison", func(s *experiments.Suite) (renderer, error) { return s.Monitor() }},
	{"rollout", "closed-loop canary/breaker/self-heal replay", func(s *experiments.Suite) (renderer, error) { return s.Rollout() }},
	{"fleet", "fleet-scale sharded replay (10k functions, streaming telemetry)", func(s *experiments.Suite) (renderer, error) { return s.Fleet() }},
	{"query", "metrics query engine over a fleet replay (rules, exemplars, 1-vs-4-worker identity)", func(s *experiments.Suite) (renderer, error) { return s.Query() }},
	{"chaos", "incident-day chaos replay: mitigations off vs on over a 4-arm fleet", func(s *experiments.Suite) (renderer, error) { return s.Chaos() }},
}

func targetNames() []string {
	names := make([]string, len(drivers))
	for i, d := range drivers {
		names[i] = d.name
	}
	return names
}

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list experiment targets and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the up-front corpus debloat (full runs only)")
	memo := flag.Bool("memo", true, "memoize module imports across oracle runs (off: re-interpret everything; output is identical either way)")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file of the run")
	events := flag.String("events", "", "write the JSONL event log of the run")
	metrics := flag.String("metrics", "", "write a JSON metrics snapshot of the run")
	flame := flag.String("flame", "", "write a folded-stack flamegraph of the run (speedscope/flamegraph.pl)")
	openmetrics := flag.String("openmetrics", "", "write an OpenMetrics text exposition of the run's metrics")
	fleetFunctions := flag.Int("fleet-functions", 0, "population size for the fleet/query/chaos targets (0: each target's default)")
	fleetWorkers := flag.Int("fleet-workers", 0, "worker shards for the fleet/query/chaos targets, 0 = GOMAXPROCS (wall-clock only; output — including the chaos scorecard — is byte-identical at any count)")
	cpuprofile := flag.String("cpuprofile", "", "write a real-clock CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-GC) at exit to this file")
	flag.Parse()

	// Reject non-positive worker counts up front: they would reach the
	// corpus pool and the DD scheduler, which quietly degrade to sequential;
	// a misconfigured harness should fail loudly and deterministically.
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "-workers must be >= 1 (got %d)\n", *workers)
		return 2
	}
	if *fleetFunctions < 0 {
		fmt.Fprintf(os.Stderr, "-fleet-functions must be >= 0, 0 meaning the target's default (got %d)\n", *fleetFunctions)
		return 2
	}
	if *fleetWorkers < 0 {
		fmt.Fprintf(os.Stderr, "-fleet-workers must be >= 0, 0 meaning GOMAXPROCS (got %d)\n", *fleetWorkers)
		return 2
	}

	if *list {
		fmt.Println("experiment targets:")
		for _, d := range drivers {
			fmt.Printf("  %-12s %s\n", d.name, d.desc)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	targets := flag.Args()
	full := len(targets) == 0 || (len(targets) == 1 && targets[0] == "all")
	if full {
		targets = targetNames()
	}

	var tr *obs.Tracer
	if *trace != "" || *events != "" || *metrics != "" || *flame != "" || *openmetrics != "" {
		tr = obs.New()
	}
	suite := experiments.NewSuite()
	suite.Platform.Tracer = tr
	suite.DisableMemo = !*memo
	suite.FleetFunctions = *fleetFunctions
	suite.FleetWorkers = *fleetWorkers

	// A full run needs every app debloated anyway, so prime the result
	// cache on the worker pool before the (sequential) drivers render.
	if full {
		if err := suite.DebloatAll(*workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	byName := make(map[string]func(*experiments.Suite) (renderer, error), len(drivers))
	for _, d := range drivers {
		byName[d.name] = d.run
	}
	for _, target := range targets {
		driver, ok := byName[strings.ToLower(target)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown target %q; known: %s\n",
				target, strings.Join(append(targetNames(), "all"), " "))
			return 2
		}
		res, err := driver(suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", target, err)
			return 1
		}
		fmt.Println(res.Render())
	}

	if tr != nil {
		if err := tr.WriteFiles(*trace, *events, *metrics, *flame, *openmetrics); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}
