// Command experiments regenerates the paper's tables and figures as text.
//
// Usage:
//
//	experiments [flags] [target ...]
//	experiments -list
//
// Targets are listed by -list; with no target (or "all" alone) every driver runs
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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, resolves every target before any
// work starts, and renders each target to stdout, diagnostics to stderr.
// It returns the exit code: 0 on success, 1 when a run fails, 2 for a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment targets and exit")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the up-front corpus debloat (full runs only)")
	memo := fs.Bool("memo", true, "memoize module imports across oracle runs (off: re-interpret everything; output is identical either way)")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON file of the run")
	events := fs.String("events", "", "write the JSONL event log of the run")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot of the run")
	flame := fs.String("flame", "", "write a folded-stack flamegraph of the run (speedscope/flamegraph.pl)")
	openmetrics := fs.String("openmetrics", "", "write an OpenMetrics text exposition of the run's metrics")
	fleetFunctions := fs.Int("fleet-functions", 0, "population size for the fleet/query/chaos targets (0: each target's default)")
	fleetWorkers := fs.Int("fleet-workers", 0, "worker shards for the fleet and chaos targets, 0 = GOMAXPROCS (wall-clock only; output — including the chaos scorecard — is byte-identical at any count); the query target always replays at 1 and 4 workers")
	cpuprofile := fs.String("cpuprofile", "", "write a real-clock CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-GC) at exit to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Reject non-positive worker counts up front: they would reach the
	// corpus pool, which quietly degrades to sequential; a misconfigured
	// harness should fail loudly and deterministically.
	if *workers < 1 {
		fmt.Fprintf(stderr, "-workers must be >= 1 (got %d)\n", *workers)
		return 2
	}
	if *fleetFunctions < 0 {
		fmt.Fprintf(stderr, "-fleet-functions must be >= 0, 0 meaning the target's default (got %d)\n", *fleetFunctions)
		return 2
	}
	if *fleetWorkers < 0 {
		fmt.Fprintf(stderr, "-fleet-workers must be >= 0, 0 meaning GOMAXPROCS (got %d)\n", *fleetWorkers)
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "experiment targets:")
		for _, d := range experiments.Targets {
			fmt.Fprintf(stdout, "  %-12s %s\n", d.Name, d.Desc)
		}
		return 0
	}

	targets := fs.Args()
	full := len(targets) == 0 || (len(targets) == 1 && strings.ToLower(targets[0]) == "all")
	drivers := experiments.Targets
	if !full {
		drivers = nil
		for _, target := range targets {
			name := strings.ToLower(target)
			if name == "all" {
				fmt.Fprintf(stderr, "target %q runs every target, so it must be the only one (got %s)\n",
					target, strings.Join(targets, " "))
				return 2
			}
			i := slices.IndexFunc(experiments.Targets, func(d experiments.Target) bool { return d.Name == name })
			if i < 0 {
				fmt.Fprintf(stderr, "unknown target %q; known: %s\n",
					target, strings.Join(append(targetNames(), "all"), " "))
				return 2
			}
			drivers = append(drivers, experiments.Targets[i])
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
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
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
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
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	for _, d := range drivers {
		res, err := d.Run(suite)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", d.Name, err)
			return 1
		}
		fmt.Fprintln(stdout, res.Render())
	}

	if tr != nil {
		if err := tr.WriteFiles(*trace, *events, *metrics, *flame, *openmetrics); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
