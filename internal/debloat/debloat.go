package debloat

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analyzer"
	"repro/internal/appspec"
	"repro/internal/dd"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/pylang"
	"repro/internal/pyruntime"
)

// Config parameterizes a debloating run. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	// K is the number of top-ranked modules to debloat (paper default 20).
	K int
	// Scoring is the profiler ranking method (paper default Combined).
	Scoring profiler.Scoring
	// Seed drives the Random scoring ablation.
	Seed int64
	// Granularity selects attribute (default) or statement DD.
	Granularity Granularity
	// DisableCallGraph skips PyCG protection (ablation): every non-magic
	// attribute becomes a DD candidate.
	DisableCallGraph bool
	// Workers enables intra-module parallel DD (the paper's §9 future
	// work): each DD round evaluates its candidate subsets with up to
	// Workers concurrent oracle runs. 0 or 1 is sequential. Results are
	// identical to sequential DD (the round accepts the lowest-indexed
	// passing subset).
	Workers int
	// Tracer, when non-nil, records the pipeline as a span tree on the
	// debloating virtual timeline (profiling first, then accumulated
	// oracle time): analyze → profile → golden → per-module DD →
	// materialize → verify. Nil disables tracing with no behavioral
	// change.
	Tracer *obs.Tracer
	// Snapshots, when non-nil, is a shared content-addressed import
	// snapshot cache: oracle runs replay the recorded virtual cost and
	// namespace of untouched modules instead of re-interpreting them.
	// When nil (and DisableMemo is false) the run uses a private cache, so
	// memoization is on by default. Caching never changes any simulated
	// observable — virtual clocks, Stats, traces and results are
	// byte-identical with it on or off (DESIGN.md §9).
	Snapshots *pyruntime.SnapshotCache
	// ASTCache, when non-nil, shares a parse cache across runs (the suite
	// passes one cache for the whole corpus); nil uses a private cache.
	ASTCache *pyruntime.ASTCache
	// DisableMemo turns snapshot memoization off entirely (the uncached
	// arm of the golden determinism test and of the memo benchmarks).
	DisableMemo bool
	// Engine selects nothing: the AST walker is the only engine. It is
	// kept for cmd/bench, which sets it.
	Engine pyruntime.Engine
}

// DefaultConfig mirrors the paper's evaluation settings (§8: "we use K = 20
// and rank modules using their approximate marginal monetary cost").
func DefaultConfig() Config {
	return Config{K: 20, Scoring: profiler.Combined}
}

// ModuleResult reports the outcome of debloating one module.
type ModuleResult struct {
	Module      string
	File        string
	AttrsBefore int // namespace size before debloating
	AttrsAfter  int // namespace size after debloating
	Removed     []string
	DD          dd.Stats
	Skipped     string // non-empty reason when the module was not debloated
}

// Result is the outcome of a full debloating run.
type Result struct {
	// App is the optimized application (fresh image with rewritten
	// site-packages), deployable as-is.
	App *appspec.App
	// Original points back to the input application.
	Original *appspec.App
	// Modules holds per-module outcomes in debloating order.
	Modules []ModuleResult
	// DebloatTime is the simulated wall time of the debloating process
	// itself (dominated by repeated oracle executions, as in Table 3).
	DebloatTime time.Duration
	// OracleRuns counts isolated oracle executions.
	OracleRuns int
	// Report and Profile expose the upstream pipeline outputs.
	Report  *analyzer.Report
	Profile *profiler.Profile
}

// TotalRemoved sums removed attributes across modules.
func (r *Result) TotalRemoved() int {
	n := 0
	for _, m := range r.Modules {
		n += len(m.Removed)
	}
	return n
}

// VerifyApp checks that an app passes its own oracle set (every test case
// runs without raising). Used as a behaviour check for optimized images.
func VerifyApp(app *appspec.App) error {
	_, err := newRunner(app)
	return err
}

// Run executes the full λ-trim pipeline on app: static analysis, cost
// profiling, and per-module Delta Debugging, returning the optimized app.
func Run(app *appspec.App, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		cfg.K = 20
	}
	snap := cfg.Snapshots
	if cfg.DisableMemo {
		snap = nil
	} else if snap == nil {
		snap = pyruntime.NewSnapshotCache()
	}
	astc := cfg.ASTCache
	if astc == nil {
		astc = pyruntime.NewASTCache()
	}
	memoBefore := snap.Stats()
	tr := cfg.Tracer
	root := tr.Start("debloat "+app.Name, "pipeline", 0)

	// Static analysis consumes no simulated time: a zero-duration span
	// marks the stage on the timeline.
	report, err := analyzer.Analyze(app.Image, app.Entry, app.Handler)
	if err != nil {
		tr.End(root, 0)
		return nil, err
	}
	tr.StartChild(root, "analyze", "pipeline", 0).Finish(0)

	prof, err := profiler.Run(app.Image, app.Entry, profiler.Options{
		Scoring: cfg.Scoring, Seed: cfg.Seed, Tracer: tr,
	})
	if err != nil {
		tr.End(root, 0)
		return nil, err
	}

	// Everything downstream of profiling rides the runner's virtual
	// clock, offset by the profiling time already spent.
	run, err := newTracedRunner(app, tr, prof.TotalTime, snap, astc)
	if err != nil {
		tr.End(root, prof.TotalTime)
		return nil, err
	}
	if tr != nil {
		tr.StartChild(root, "golden", "pipeline", prof.TotalTime).
			Add(obs.Int("cases", int64(len(app.Oracle)))).
			Finish(run.nowVirtual())
	}

	res := &Result{
		App:      nil,
		Original: app,
		Report:   report,
		Profile:  prof,
	}

	for _, mp := range prof.TopK(cfg.K) {
		mr := debloatModule(run, report, mp.Name, cfg)
		res.Modules = append(res.Modules, mr)
	}

	// Materialize the optimized image: print each accepted reduction back
	// to its file (the paper copies the rewritten __init__.py back into
	// site-packages before building the deployment container).
	matAt := run.nowVirtual()
	optimized := app.Clone()
	for name, ast := range run.overrides {
		path, ok := moduleFile(app, name)
		if !ok {
			continue
		}
		optimized.Image.Write(path, pylang.Print(ast))
	}
	if tr != nil {
		tr.StartChild(root, "materialize", "pipeline", matAt).
			Add(obs.Int("rewritten", int64(len(run.overrides)))).
			Finish(matAt)
	}
	optimized.Name = app.Name
	res.App = optimized
	res.DebloatTime = run.virtual
	res.OracleRuns = run.runs

	// Final safety check: the optimized image (parsed from the printed
	// source, not the in-memory ASTs) must still pass the oracle. The
	// caches are shared: the rewritten modules hash to new keys while the
	// untouched library chain still replays.
	final, err := newTracedRunner(optimized, nil, 0, snap, astc)
	if err != nil {
		tr.End(root, matAt)
		return nil, fmt.Errorf("debloat: optimized app fails verification: %w", err)
	}
	if tr != nil {
		tr.StartChild(root, "verify", "pipeline", matAt).Finish(matAt + final.virtual)
	}
	for i := range final.golden {
		if final.golden[i].stdout != run.golden[i].stdout ||
			final.golden[i].result != run.golden[i].result {
			tr.End(root, matAt+final.virtual)
			return nil, fmt.Errorf("debloat: optimized app diverges on oracle case %d", i)
		}
	}
	if tr != nil {
		root.Add(
			obs.Int("oracle_runs", int64(res.OracleRuns)),
			obs.Int("removed_attrs", int64(res.TotalRemoved())),
			obs.DurationUS("debloat_us", res.DebloatTime),
		)
		tr.End(root, matAt+final.virtual)
		tr.Metrics().Inc("debloat.runs", 1)
		if snap != nil {
			// Real-clock observability only. With a suite-shared cache and
			// parallel scheduling these deltas are schedule-dependent; they
			// are excluded from the byte-identity invariant (DESIGN.md §9).
			memoAfter := snap.Stats()
			tr.Metrics().Inc("memo.snapshot.hits", memoAfter.Hits-memoBefore.Hits)
			tr.Metrics().Inc("memo.snapshot.misses", memoAfter.Misses-memoBefore.Misses)
		}
	}
	return res, nil
}

// debloatModule runs attribute-granularity DD over one module.
func debloatModule(run *runner, report *analyzer.Report, name string, cfg Config) ModuleResult {
	mr := ModuleResult{Module: name}

	// The module span is pushed on the tracer stack so the DD run's own
	// spans nest under it.
	sp := run.tr.Start("module "+name, "debloat", run.nowVirtual())
	defer func() {
		if run.tr == nil {
			return
		}
		sp.Add(
			obs.Int("candidates_removed", int64(len(mr.Removed))),
			obs.Int("oracle_tests", int64(mr.DD.Tests)),
		)
		if mr.Skipped != "" {
			sp.Add(obs.String("skipped", mr.Skipped))
		}
		run.tr.End(sp, run.nowVirtual())
		run.tr.Metrics().Inc("debloat.modules", 1)
		run.tr.Metrics().Inc("debloat.removed_attrs", int64(len(mr.Removed)))
		if mr.Skipped != "" {
			run.tr.Metrics().Inc("debloat.modules_skipped", 1)
		}
	}()

	path, ok := moduleFile(run.app, name)
	if !ok {
		mr.Skipped = "not a site-packages module"
		return mr
	}
	mr.File = path

	src, err := run.app.Image.Read(path)
	if err != nil {
		mr.Skipped = "source unavailable"
		return mr
	}
	ast, perr := run.astCache.Parse(run.app.Image, path, name, src)
	if perr != nil {
		mr.Skipped = "unparseable: " + perr.Error()
		return mr
	}
	// If a previous module's debloating already rewrote this module (it
	// can appear once per granularity arm), start from that.
	if prior, ok := run.overrides[name]; ok {
		ast = prior
	}

	// Step 1 (paper §6.3): load the module to access its attributes.
	attrs, ok := loadAttrs(run, name)
	if !ok {
		mr.Skipped = "module does not import standalone"
		return mr
	}
	mr.AttrsBefore = len(attrs)

	// Step 3: candidate set = attributes minus PyCG-protected minus magic,
	// and only those actually bound by a top-level statement (others are
	// not expressible as source removals).
	protected := report.Protected[name]
	if cfg.DisableCallGraph {
		protected = nil
	}
	prov := providers(ast.Body)
	var candidates []string
	for _, a := range attrs {
		if pyruntime.MagicAttrs[a] || protected[a] {
			continue
		}
		if _, bound := prov[a]; !bound {
			continue
		}
		candidates = append(candidates, a)
	}
	if len(candidates) == 0 {
		mr.Skipped = "no removable candidates"
		mr.AttrsAfter = mr.AttrsBefore
		return mr
	}

	if cfg.Granularity == StmtGranularity {
		return debloatModuleStmts(run, name, ast, mr, cfg)
	}

	// Step 4: DD over the candidates' indices. Every probe body is built
	// from a kept bitmap through an index computed once per module.
	idx := newProbeIndex(ast.Body, candidates)
	keep, stats := minimize(run, indices(len(candidates)), func(keep []int) bool {
		body := idx.build(keptBitmap(len(candidates), keep))
		return run.test(name, &pylang.Module{Name: name, Body: body})
	}, cfg)
	mr.DD = stats

	kept := keptBitmap(len(candidates), keep)
	mr.Removed = make([]string, 0, len(candidates)-len(keep))
	for i, c := range candidates {
		if !kept[i] {
			mr.Removed = append(mr.Removed, c)
		}
	}
	sort.Strings(mr.Removed)
	mr.AttrsAfter = mr.AttrsBefore - len(mr.Removed)
	if len(mr.Removed) > 0 {
		run.overrides[name] = &pylang.Module{Name: name, Body: idx.build(kept)}
	}
	return mr
}

// minimize dispatches DD with the run's worker count, tracer, and virtual
// clock.
func minimize[T any](run *runner, items []T, oracle dd.Oracle[T], cfg Config) ([]T, dd.Stats) {
	return dd.MinimizeWith(items, oracle, dd.Options{
		Workers: cfg.Workers,
		Tracer:  run.tr,
		Now:     run.nowVirtual,
	})
}

// indices returns 0..n-1, the DD components of n candidates.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// debloatModuleStmts is the statement-granularity ablation arm.
func debloatModuleStmts(run *runner, name string, ast *pylang.Module, mr ModuleResult, cfg Config) ModuleResult {
	comp, stmts := stmtComponents(ast.Body)
	keep, stats := minimize(run, indices(len(stmts)), func(keep []int) bool {
		body := keepStmts(ast.Body, comp, keptBitmap(len(stmts), keep))
		return run.test(name, &pylang.Module{Name: name, Body: body})
	}, cfg)
	mr.DD = stats

	kept := keptBitmap(len(stmts), keep)
	removedAttrs := make(map[string]bool)
	for c, i := range stmts {
		if !kept[c] {
			for _, n := range pylang.BoundNames(ast.Body[i]) {
				removedAttrs[n] = true
			}
		}
	}
	mr.Removed = sortedNames(removedAttrs)
	mr.AttrsAfter = mr.AttrsBefore - len(mr.Removed)
	if len(mr.Removed) > 0 {
		run.overrides[name] = &pylang.Module{Name: name, Body: keepStmts(ast.Body, comp, kept)}
	}
	return mr
}

// loadAttrs imports the module in an isolated interpreter (with accepted
// overrides applied) and returns its namespace attribute names.
func loadAttrs(run *runner, name string) ([]string, bool) {
	in := pyruntime.New(run.app.Image)
	in.SetASTCache(run.astCache)
	if run.snap != nil {
		in.SetSnapshots(run.snap)
	}
	for n, ast := range run.overrides {
		in.SetOverride(n, ast)
	}
	mod, perr := in.Import(name)
	run.account(in.Clock.Now())
	if perr != nil {
		return nil, false
	}
	return mod.Dict.Names(), true
}

// moduleFile resolves a module name to its site-packages path inside the
// app image. Only library code is debloated; application code and modules
// without source are skipped.
func moduleFile(app *appspec.App, name string) (string, bool) {
	rel := strings.ReplaceAll(name, ".", "/")
	for _, candidate := range []string{
		pyruntime.SitePackages + rel + ".py",
		pyruntime.SitePackages + rel + "/__init__.py",
	} {
		if app.Image.Exists(candidate) {
			return candidate, true
		}
	}
	return "", false
}
