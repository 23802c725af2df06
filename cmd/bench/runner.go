package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// workload is one set of inputs the benchmark runs, bound to its runner.
type workload struct {
	name string
	why  string
	run  func(o options, g *golden, log io.Writer) (*report, error)
}

// workloads are listed in BENCHMARK.json order; README.md gives the full
// reasons and the op of each.
var workloads = []workload{
	{"debloat-corpus", "cold corpus debloat through Suite.Debloat: oracle runs and the import-snapshot memo do the work",
		runWith(setupPipeline(false), 1)},
	{"heal-corpus", "debloat.Rerun self-heal over the corpus: bypasses the memo, so parse, print and profile carry more of each pass",
		runWith(setupPipeline(true), 1)},
	{"fleet-day", "10k-function fleet replay with telemetry, report and exposition: the telemetry fold dominates",
		runWith(setupFleet(false), 1)},
	{"fleet-chaos", "the same replay through the chaos gate with 4 arms, labelled series and recording rules, plus the scorecard",
		runWith(setupFleet(true), 1)},
	{"chaos-query", "one client querying a served chaos replay over one keep-alive connection: mql evaluation and HTTP",
		runWith(setupQuery, 200)},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, whatever the
// workload; an op is a corpus pass, a replay, or one HTTP request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"alloc_kib_per_op", "KiB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A workload whose op
// never calls a layer reports 0 for it. Shares (%) divide a layer's cost
// per op by the op's wall time, named in the table's base line.
var perLayer = append([]metricDef{
	{"bench.traced_op_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MB"},

	{"pyparser.parse_pct", "%"},
	{"pyparser.mb_per_s", "MB/s"},
	{"pylang.print_pct", "%"},
	{"analyzer.analyze_pct", "%"},
	{"profiler.run_pct", "%"},
	{"pyruntime.import_cold_pct", "%"},
	{"pyruntime.import_memo_pct", "%"},
	{"pyruntime.snapshot_hit_ratio", "ratio"},
	{"pyruntime.snapshot_lookups", "count"},
	{"dd.oracle_runs", "count"},
	{"dd.tests", "count"},
	{"dd.cache_hit_ratio", "ratio"},
	{"dd.oracle_pct", "%"},
	{"debloat.removed_attrs", "count"},

	{"fleet.generate_pct", "%"},
	{"trace.arrival_pct", "%"},
	{"trace.pool_pct", "%"},
	{"trace.peak_live", "count"},
	{"fleet.replay_off_pct", "%"},
	{"monitor.fold_pct", "%"},
	{"fleet.allocs_per_inv", "allocs/inv"},
	{"monitor.slo_eval_pct", "%"},
	{"fleet.render_pct", "%"},
	{"monitor.openmetrics_pct", "%"},
	{"chaos.gate_pct", "%"},
	{"query.rules_pct", "%"},

	{"query.instant_pct", "%"},
	{"query.range_pct", "%"},
	{"serve.overhead_pct", "%"},
}, appMetrics()...)

// appMetrics are one share per corpus app, so that a gain on one program
// is visible on its own row.
func appMetrics() []metricDef {
	var out []metricDef
	for _, name := range experiments.AllNames() {
		out = append(out, metricDef{appMetric(name), "%"})
	}
	return out
}

func appMetric(app string) string { return "app." + app + ".pct" }

// runConfig is what a workload's set-up needs from the command line.
type runConfig struct {
	seed   int64
	short  bool
	golden *golden
}

// instance is a workload after set-up. R is the record one op hands back
// to the traced run's layer calls.
type instance[R any] interface {
	// reference computes what ops are checked against. It is untimed and
	// excluded from setup_s.
	reference() error
	// op runs one op, recording spans into sp (nil when untraced). check
	// verifies the op's output once the op's timer has stopped.
	op(sp *spans) (rec R, check func() error, err error)
	// layers times each layer's public calls on the inputs the timed ops
	// used (traced runs only).
	layers(sp *spans, ops []timedOp[R]) (*layerReport, error)
	close()
}

// timedOp is one timed op as the runner measured it.
type timedOp[R any] struct {
	dur          time.Duration
	allocBytes   uint64
	allocObjects uint64
	rec          R
}

// A window is a run of ops at least this long in op time: the unit of one
// calibration or one peak-RSS reading.
const window = 500 * time.Millisecond

// memWindows is the number of peak-RSS readings per run.
const memWindows = 3

// runWith binds a set-up to the closed-loop runner: repeated set-up, the
// untimed reference, the peak-RSS windows, then timed ops until o.seconds
// have passed (at least one; shortOps at -short scale). Every op's output
// is checked, whether it is timed or not.
func runWith[R any](setup func(runConfig) (instance[R], error), shortOps int) func(options, *golden, io.Writer) (*report, error) {
	return func(o options, g *golden, log io.Writer) (*report, error) {
		rc := runConfig{seed: o.seed, short: o.short, golden: g}
		rep := &report{traced: o.trace}

		// Set-up runs several times and reports the median, so that work
		// moved into set-up shows in setup_s. Only the last instance is kept.
		// Each set-up is scaled like a window of ops (see speed).
		var inst instance[R]
		var total time.Duration
		f0 := speed()
		for n := 0; n < 1 || !o.short && (n < 3 || total < time.Second && n < 20); n++ {
			if inst != nil {
				inst.close()
			}
			runtime.GC()
			t := time.Now()
			in, err := setup(rc)
			d := time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			f1 := speed()
			inst, total = in, total+d
			rep.setup = append(rep.setup, d.Seconds()*2/(1/f0+1/f1))
			rep.setupRaw = append(rep.setupRaw, d.Seconds())
			f0 = f1
		}
		defer inst.close()
		if err := inst.reference(); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}

		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
		runOp := func(sp *spans) timedOp[R] {
			metrics.Read(allocs)
			b0, n0 := allocs[0].Value.Uint64(), allocs[1].Value.Uint64()
			t := time.Now()
			rec, check, err := inst.op(sp)
			d := time.Since(t)
			metrics.Read(allocs)
			if err == nil {
				err = check()
			}
			rep.attempted++
			if err != nil {
				rep.failed++
				if len(rep.errs) < 5 {
					rep.errs = append(rep.errs, err.Error())
					fmt.Fprintln(log, "op failed:", err)
				}
			}
			return timedOp[R]{dur: d, allocBytes: allocs[0].Value.Uint64() - b0, allocObjects: allocs[1].Value.Uint64() - n0, rec: rec}
		}

		// Peak RSS is read over windows of ops, each starting from a heap
		// whose free pages went back to the OS, so that one window's peak
		// does not carry into the next. The windows come before the timed
		// ops, which they warm up: the process keeps some caches across ops
		// (pylang.PrintCached never evicts), so the number of ops run before
		// a window has to be the same in every run.
		rss := procRSS()
		windows := memWindows
		if o.short {
			windows = 1
		}
		for i := 0; i < windows; i++ {
			debug.FreeOSMemory()
			reset := rss.reset()
			for d := time.Duration(0); d < window && !(o.short && d > 0); {
				d += runOp(nil).dur
			}
			mb, src := rss.peakMB()
			if !reset {
				src += ", not reset: includes set-up"
			}
			rep.peaks, rep.peakSrc = append(rep.peaks, mb), src
		}

		var sp *spans
		if o.trace {
			sp = &spans{tr: obs.New(), t0: time.Now()}
		}
		minOps, seconds := 1, time.Duration(o.seconds*float64(time.Second))
		if o.short {
			minOps, seconds = shortOps, 0
		}
		// Timed ops run in windows of at least window op time. The
		// calibration kernel runs at each window boundary, and a window's
		// times are scaled by the kernel times on both sides of it (see
		// speed). Each window starts from a collected heap.
		var ops []timedOp[R]
		var ms0, ms1 runtime.MemStats
		var winTime time.Duration
		var winOps []timedOp[R]
		f0 = 0
		closeWindow := func() {
			runtime.ReadMemStats(&ms1)
			f1 := speed()
			f := 2 / (1/f0 + 1/f1) // calRef over the mean kernel time
			for _, op := range winOps {
				rep.ops = append(rep.ops, ms(op.dur)*f)
			}
			rep.gcOps += len(winOps)
			rep.gcCycles += float64(ms1.NumGC - ms0.NumGC)
			rep.gcPauseMs += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 * f
			winTime, winOps, f0 = 0, winOps[:0], f1
		}
		start := time.Now()
		for len(ops) < minOps || time.Since(start) < seconds {
			if len(winOps) == 0 {
				if f0 == 0 {
					f0 = speed()
				}
				runtime.GC()
				runtime.ReadMemStats(&ms0)
			}
			op := runOp(sp)
			ops, winOps = append(ops, op), append(winOps, op)
			rep.opsRaw = append(rep.opsRaw, ms(op.dur))
			rep.allocKiB = append(rep.allocKiB, float64(op.allocBytes)/1024)
			if winTime += op.dur; winTime >= window {
				closeWindow()
			}
		}
		if len(winOps) > 0 {
			closeWindow()
		}
		if !o.trace {
			return rep, nil
		}
		lr, err := inst.layers(sp, ops)
		if err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		rep.layers = lr
		if rep.chrome, err = sp.tr.ChromeTrace(); err != nil {
			return nil, err
		}
		// The exporter's output is checked like any other output.
		if !json.Valid(rep.chrome) {
			rep.failed++
			rep.errs = append(rep.errs, "chrome trace is not valid JSON")
		}
		return rep, nil
	}
}

// report is one run's measurements.
type report struct {
	traced            bool
	attempted, failed int
	errs              []string
	setup, setupRaw   []float64 // seconds per set-up, scaled by speed and raw
	ops, opsRaw       []float64 // wall ms per timed op, scaled by speed and raw
	allocKiB          []float64 // heap allocation per timed op
	peaks             []float64 // peak RSS MB per peak-RSS window
	peakSrc           string
	gcOps             int // timed ops, which gcCycles and gcPauseMs cover
	gcCycles          float64
	gcPauseMs         float64
	layers            *layerReport
	chrome            []byte
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() resultLine {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	defs, vals := endToEnd, r.endToEnd()
	if r.traced {
		defs, vals = perLayer, r.perLayer()
	}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func (r *report) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":          median(r.setup),
		"op_ms":            median(r.ops),
		"alloc_kib_per_op": mean(r.allocKiB),
		"peak_rss_mb":      median(r.peaks),
	}
}

func (r *report) perLayer() map[string]float64 {
	n := float64(r.gcOps)
	vals := map[string]float64{
		"bench.traced_op_ms": median(r.ops),
		"go.gc_cycles":       r.gcCycles / n,
		"go.gc_pause_ms":     r.gcPauseMs / n,
		"go.alloc_mb":        mean(r.allocKiB) / 1024,
	}
	for _, row := range r.layers.rows {
		if row.metric != "" {
			vals[row.metric] = 100 * row.savedMs / r.layers.base
		}
	}
	for k, v := range r.layers.values {
		vals[k] = v
	}
	return vals
}

// print writes the human-readable report: every metric by name with its
// unit, the spread behind it, and for traced runs the layer table.
func (r *report) print(w io.Writer, wl workload) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload: %s (%s) — %s\n", wl.name, mode, wl.why)
	fmt.Fprintf(w, "ops: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	fmt.Fprintf(w, "%-18s %12s %12s %12s %6s  %s\n", "metric", "median", "p25", "p75", "n", "unit")
	row := func(name string, xs []float64, unit string) {
		fmt.Fprintf(w, "%-18s %12.4f %12.4f %12.4f %6d  %s\n", name, median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs), unit)
	}
	row("setup_s", r.setup, "s")
	row("  raw", r.setupRaw, "s (wall, not scaled)")
	row("op_ms", r.ops, "ms")
	row("  raw", r.opsRaw, "ms (wall, not scaled)")
	fmt.Fprintf(w, "%-18s %12.4f %12s %12s %6d  %s (mean over ops)\n", "alloc_kib_per_op", mean(r.allocKiB), "-", "-", len(r.allocKiB), "KiB")
	row("peak_rss_mb", r.peaks, "MB ("+r.peakSrc+" per window of ops)")
	if !r.traced {
		return
	}
	fmt.Fprintln(w, "(traced values: tracing overhead is each minus the untraced run's value)")
	r.layers.print(w)
	vals := r.perLayer()
	fmt.Fprintln(w, "per-layer metrics:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
}

// layerRow is one layer of the traced run's table.
type layerRow struct {
	layer   string  // the public call timed, or a difference of two for derived rows
	calls   float64 // calls per op
	selfMs  float64 // measured time per op; NaN for derived rows
	savedMs float64 // what an op would save without the layer (the Eq. 2 ranking)
	metric  string  // the per-layer share this row feeds, if any
}

// layerReport is a workload's per-layer breakdown.
type layerReport struct {
	base     float64 // op wall ms the shares divide by
	baseName string
	rows     []layerRow
	values   map[string]float64 // per-layer metrics that are not shares
	notes    []string
}

func (lr *layerReport) add(layer string, calls float64, self, saved time.Duration, metric string) {
	lr.rows = append(lr.rows, layerRow{layer: layer, calls: calls, selfMs: ms(self), savedMs: ms(saved), metric: metric})
}

// derive adds a row whose cost is the difference of two measured calls.
func (lr *layerReport) derive(layer string, saved time.Duration, metric string) {
	lr.rows = append(lr.rows, layerRow{layer: layer, calls: math.NaN(), selfMs: math.NaN(), savedMs: ms(saved), metric: metric})
}

func (lr *layerReport) print(w io.Writer) {
	fmt.Fprintf(w, "layers, ranked by what an op would save without them (base: %s = %.3f ms)\n", lr.baseName, lr.base)
	fmt.Fprintf(w, "  %-52s %9s %12s %8s %12s  %s\n", "layer", "calls/op", "self ms/op", "% of op", "saved ms/op", "metric")
	rows := append([]layerRow(nil), lr.rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].savedMs > rows[j].savedMs })
	dash := func(v float64, f string) string {
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf(f, v)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-52s %9s %12s %8.2f %12.3f  %s\n", r.layer, dash(r.calls, "%.2f"), dash(r.selfMs, "%.3f"),
			100*r.savedMs/lr.base, r.savedMs, r.metric)
	}
	for _, n := range lr.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// spans records the traced run on an obs.Tracer, using real-clock offsets
// from t0 as its timestamps. A nil *spans records nothing.
type spans struct {
	tr *obs.Tracer
	t0 time.Time
}

func (s *spans) start(name, cat string) *obs.Span {
	if s == nil {
		return nil
	}
	return s.tr.Start(name, cat, time.Since(s.t0))
}

func (s *spans) end(sp *obs.Span) {
	if s == nil {
		return
	}
	s.tr.End(sp, time.Since(s.t0))
}

// timed runs one public call as a child span of the innermost open span
// and returns its wall time.
func timed(sp *spans, name string, fn func() error) (time.Duration, error) {
	span := sp.start(name, "call")
	t := time.Now()
	err := fn()
	d := time.Since(t)
	sp.end(span)
	return d, err
}

// medianOf times reps standalone calls of fn and returns the median.
func medianOf(sp *spans, reps int, name string, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		d, err := timed(sp, name, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// durations extracts the op wall times.
func durations[R any](ops []timedOp[R]) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = float64(op.dur)
	}
	return out
}
