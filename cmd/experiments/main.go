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

func targetNames() []string {
	names := make([]string, len(experiments.Targets))
	for i, d := range experiments.Targets {
		names[i] = d.Name
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
	// corpus pool, which quietly degrades to sequential; a misconfigured
	// harness should fail loudly and deterministically.
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
		for _, d := range experiments.Targets {
			fmt.Printf("  %-12s %s\n", d.Name, d.Desc)
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

	byName := make(map[string]func(*experiments.Suite) (experiments.Renderer, error), len(experiments.Targets))
	for _, d := range experiments.Targets {
		byName[d.Name] = d.Run
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
