// Command bench is the repository's benchmark: one seeded, closed-loop run
// of one workload through the public APIs the two CLIs use, with every op's
// output checked against a reference.
//
// Usage (from the repository root):
//
//	bash cmd/bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// or, from cmd/bench, go run . with the same flags. An untraced run prints
// the end-to-end metrics; a traced run (--trace 1) times each layer's public
// calls and prints the per-layer table and metrics instead. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. README.md lists the workloads and metrics and says why each
// was chosen.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	short    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run, or all (one child process each): "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed section in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, also write the Chrome trace to this file")
	fs.BoolVar(&o.short, "short", false, "smoke scale: 3 apps, 500 functions, one timed op (200 requests)")
	update := fs.Bool("update-golden", false, "recompute testdata/golden.json; run from cmd/bench")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "-trace must be 0 or 1 (got %d)\n", *traced)
		return 2
	}
	o.trace = *traced == 1
	if o.seconds < 0 || math.IsNaN(o.seconds) {
		fmt.Fprintf(stderr, "-seconds must be >= 0 (got %v)\n", o.seconds)
		return 2
	}

	// The load must not oversubscribe the machine: the fleet runs one
	// worker per GOMAXPROCS, and the numbers assume one per CPU.
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(stderr, "GOMAXPROCS=%d exceeds nproc=%d; refusing to run\n", procs, cpus)
		return 2
	}
	fmt.Fprintln(stdout, machineLine())

	if *update {
		if err := updateGolden("testdata/golden.json", stdout); err != nil {
			fmt.Fprintln(stderr, "update-golden:", err)
			return 1
		}
		return 0
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q; choose one of: all, %s\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep, err := w.run(o, g, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout, w)
	if o.trace && o.traceOut != "" {
		if err := os.WriteFile(o.traceOut, rep.chrome, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll re-executes the binary once per workload, so that each workload
// runs in a fresh process with its own heap and peak-RSS counter.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	code := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.name,
			"-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds),
			"-trace", trace,
			fmt.Sprintf("-short=%t", o.short),
		}
		if o.traceOut != "" {
			args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ".json")+"-"+w.name+".json")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// machineLine names what the numbers were measured on.
func machineLine() string {
	return fmt.Sprintf("machine: nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
