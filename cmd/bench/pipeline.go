package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/analyzer"
	"repro/internal/appspec"
	"repro/internal/debloat"
	"repro/internal/experiments"
	"repro/internal/profiler"
	"repro/internal/pylang"
	"repro/internal/pyparser"
	"repro/internal/pyruntime"
)

// healCases is the failing input the rollout controller's self-heal hands
// debloat.Rerun: the advanced mode no app's oracle covered.
var healCases = []appspec.TestCase{{Name: "heal-advanced", Event: map[string]any{"mode": "advanced"}}}

// shortApps are the -short scale's corpus: two of the cheapest apps and
// lightgbm, whose reduction the heal case breaks, so Rerun redoes DD.
var shortApps = []string{"markdown", "skimage", "lightgbm"}

// pipeline is the debloat-corpus (Suite.Debloat) or heal-corpus
// (debloat.Rerun) workload. One op is one pass over every app, one at a
// time, in the corpus's Table 1 order. A pass's peak memory depends on the
// order, since the suite's caches grow with every app (at seed 5 it is about
// 250 MB, at seed 1 about 190), so only the reference pass runs in the
// order the seed permutes.
type pipeline struct {
	rerun  bool
	seed   int64
	names  []string
	apps   map[string]*appspec.App    // the original images
	prev   map[string]*debloat.Result // heal-corpus: the debloat Rerun starts from
	want   map[string]string          // golden result digest per app
	suite  *experiments.Suite         // debloat-corpus: the last pass's suite
	refErr error                      // the reference pass differs from the goldens
}

// passStats is one pass's record: per-app wall time and the pipeline's own
// counts, which repeat exactly from pass to pass.
type passStats struct {
	appMs                        map[string]float64
	oracleRuns, tests, cacheHits int
	removed                      int
	lookups, hits                int64
}

func setupPipeline(rerun bool) func(runConfig) (instance[passStats], error) {
	return func(rc runConfig) (instance[passStats], error) {
		names := experiments.AllNames()
		if rc.short {
			names = shortApps
		}
		p := &pipeline{rerun: rerun, seed: rc.seed, names: names, apps: map[string]*appspec.App{}, want: rc.golden.Debloat}
		if rerun {
			p.want = rc.golden.Rerun
		}
		s := experiments.NewSuite()
		for _, name := range p.names {
			p.apps[name] = s.App(name)
		}
		if rerun {
			p.prev = map[string]*debloat.Result{}
			for _, name := range p.names {
				r, err := s.Debloat(name)
				if err != nil {
					return nil, err
				}
				p.prev[name] = r
			}
		}
		return p, nil
	}
}

// permute returns names in an order drawn from seed.
func permute(names []string, seed int64) []string {
	out := make([]string, len(names))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(names)) {
		out[i] = names[j]
	}
	return out
}

// reference runs one pass in the order the seed permutes. The goldens do
// not depend on the order, so its digests must match them too; if they do
// not, every op fails.
func (p *pipeline) reference() error {
	for _, name := range p.names {
		if p.want[name] == "" {
			return fmt.Errorf("no golden digest for %s", name)
		}
	}
	order := permute(p.names, p.seed)
	_, results, err := p.pass(nil, order)
	if err != nil {
		return err
	}
	if err := p.check(order, results); err != nil {
		p.refErr = fmt.Errorf("in the seed's order: %w", err)
	}
	return nil
}

func (p *pipeline) call() string {
	if p.rerun {
		return "debloat.Rerun"
	}
	return "experiments.Suite.Debloat"
}

func (p *pipeline) op(sp *spans) (passStats, func() error, error) {
	st, results, err := p.pass(sp, p.names)
	if err != nil {
		return st, nil, err
	}
	return st, func() error {
		if p.refErr != nil {
			return p.refErr
		}
		return p.check(p.names, results)
	}, nil
}

// pass debloats (or heals) every app in the given order.
func (p *pipeline) pass(sp *spans, order []string) (passStats, []*debloat.Result, error) {
	root := sp.start("pass", "op")
	defer sp.end(root)
	var s *experiments.Suite
	if !p.rerun {
		s = experiments.NewSuite()
	}
	st := passStats{appMs: map[string]float64{}}
	results := make([]*debloat.Result, len(order))
	for i, name := range order {
		d, err := timed(sp, p.call()+" "+name, func() (err error) {
			if p.rerun {
				results[i], err = debloat.Rerun(p.prev[name], healCases, debloat.DefaultConfig())
			} else {
				results[i], err = s.Debloat(name)
			}
			return err
		})
		if err != nil {
			return st, nil, fmt.Errorf("%s: %w", name, err)
		}
		r := results[i]
		st.appMs[name] = ms(d)
		st.oracleRuns += r.OracleRuns
		st.removed += r.TotalRemoved()
		for _, m := range r.Modules {
			st.tests += m.DD.Tests
			st.cacheHits += m.DD.CacheHits
		}
	}
	if s != nil {
		ss := s.Snapshots.Stats()
		st.lookups, st.hits = ss.Hits+ss.Misses, ss.Hits
		p.suite = s
	}
	return st, results, nil
}

// check compares each result's digest to its golden.
func (p *pipeline) check(order []string, results []*debloat.Result) error {
	for i, name := range order {
		if got := resultDigest(results[i]); got != p.want[name] {
			return fmt.Errorf("%s %s: result digest %.16s, golden %.16s", p.call(), name, got, p.want[name])
		}
	}
	return nil
}

// layers times each pipeline layer's public call over the apps a pass
// debloats, three times, and keeps the median: a layer's cost per pass is
// one call per app (one Parse and Print per source file).
func (p *pipeline) layers(sp *spans, ops []timedOp[passStats]) (*layerReport, error) {
	lr := &layerReport{base: ms(time.Duration(median(durations(ops)))), baseName: "median pass wall time", values: map[string]float64{}}
	const reps = 3
	root := sp.start("layers", "layers")
	defer sp.end(root)

	var mods []*pylang.Module
	var srcBytes int
	parse, err := medianOf(sp, reps, "pyparser.Parse", func() error {
		mods, srcBytes = mods[:0], 0
		for _, name := range p.names {
			img := p.apps[name].Image
			for _, path := range img.List() {
				if !strings.HasSuffix(path, ".py") {
					continue
				}
				src, err := img.Read(path)
				if err != nil {
					return err
				}
				m, err := pyparser.Parse(strings.TrimSuffix(path, ".py"), src)
				if err != nil {
					return fmt.Errorf("%s %s: %w", name, path, err)
				}
				mods = append(mods, m)
				srcBytes += len(src)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	lr.add("pyparser.Parse", float64(len(mods)), parse, parse, "pyparser.parse_pct")
	lr.values["pyparser.mb_per_s"] = float64(srcBytes) / 1e6 / parse.Seconds()

	printed, _ := medianOf(sp, reps, "pylang.Print", func() error {
		for _, m := range mods {
			pylang.Print(m)
		}
		return nil
	})
	lr.add("pylang.Print", float64(len(mods)), printed, printed, "pylang.print_pct")

	perApp := func(name string, fn func(app *appspec.App) error) (time.Duration, error) {
		return medianOf(sp, reps, name, func() error {
			for _, app := range p.names {
				if err := fn(p.apps[app]); err != nil {
					return fmt.Errorf("%s: %w", app, err)
				}
			}
			return nil
		})
	}
	calls := float64(len(p.names))
	analyze, err := perApp("analyzer.Analyze", func(app *appspec.App) error {
		_, err := analyzer.Analyze(app.Image, app.Entry, app.Handler)
		return err
	})
	if err != nil {
		return nil, err
	}
	lr.add("analyzer.Analyze", calls, analyze, analyze, "analyzer.analyze_pct")
	profile, err := perApp("profiler.Run", func(app *appspec.App) error {
		_, err := profiler.Run(app.Image, app.Entry, profiler.Options{Scoring: profiler.Combined})
		return err
	})
	if err != nil {
		return nil, err
	}
	lr.add("profiler.Run", calls, profile, profile, "profiler.run_pct")

	// One oracle import of each app's entry module over a warm AST cache:
	// cold re-interprets every module, memo replays the pass's snapshots.
	asts := map[string]*pyruntime.ASTCache{}
	for _, name := range p.names {
		asts[name] = pyruntime.NewASTCache()
		if err := importEntry(p.apps[name], asts[name], nil); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	cold, err := perApp("pyruntime.Interp.Import (cold)", func(app *appspec.App) error {
		return importEntry(app, asts[app.Name], nil)
	})
	if err != nil {
		return nil, err
	}
	lr.add("pyruntime.Interp.Import (cold)", calls, cold, cold, "pyruntime.import_cold_pct")
	if p.suite != nil {
		memo, err := perApp("pyruntime.Interp.Import (memo)", func(app *appspec.App) error {
			return importEntry(app, asts[app.Name], p.suite.Snapshots)
		})
		if err != nil {
			return nil, err
		}
		lr.add("pyruntime.Interp.Import (memo)", calls, memo, memo, "pyruntime.import_memo_pct")
	}

	// Oracle evaluation is what is left of each Debloat or Rerun call once
	// its analysis and profiling are taken out.
	var passCalls []float64
	for _, op := range ops {
		sum := 0.0
		for _, v := range op.rec.appMs {
			sum += v
		}
		passCalls = append(passCalls, sum)
	}
	last := ops[len(ops)-1].rec
	oracle := time.Duration((median(passCalls) - ms(analyze) - ms(profile)) * float64(time.Millisecond))
	lr.derive(p.call()+" − analyze − profile", oracle, "dd.oracle_pct")
	lr.notes = append(lr.notes, fmt.Sprintf("dd oracle time per run: %.2f µs over %d oracle runs per pass",
		1000*ms(oracle)/float64(last.oracleRuns), last.oracleRuns))

	for _, name := range p.names {
		var xs []float64
		for _, op := range ops {
			xs = append(xs, op.rec.appMs[name])
		}
		d := time.Duration(median(xs) * float64(time.Millisecond))
		lr.add(p.call()+" "+name, 1, d, d, appMetric(name))
	}

	lr.values["dd.oracle_runs"] = float64(last.oracleRuns)
	lr.values["dd.tests"] = float64(last.tests)
	lr.values["dd.cache_hit_ratio"] = ratio(last.cacheHits, last.tests+last.cacheHits)
	lr.values["debloat.removed_attrs"] = float64(last.removed)
	lr.values["pyruntime.snapshot_lookups"] = float64(last.lookups)
	lr.values["pyruntime.snapshot_hit_ratio"] = ratio(int(last.hits), int(last.lookups))
	return lr, nil
}

// importEntry imports the app's entry module in a fresh interpreter, the
// way one oracle run starts.
func importEntry(app *appspec.App, asts *pyruntime.ASTCache, snaps *pyruntime.SnapshotCache) error {
	in := pyruntime.New(app.Image)
	in.SetASTCache(asts)
	if snaps != nil {
		in.SetSnapshots(snaps)
	}
	if _, err := in.Import(app.Entry); err != nil {
		return err
	}
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (p *pipeline) close() {}
