package debloat

import (
	"repro/internal/appspec"
	"repro/internal/pylang"
)

// Rerun implements the continuous debloating pipeline the paper sketches
// as future work (§9): when the fallback mechanism collects a failing
// input — or the function is updated — λ-trim re-runs with an extended
// oracle set, using the previous run's reductions to drive the new one
// efficiently. Each previously-reduced module is first revalidated as-is
// against the extended oracle (a handful of runs); only modules whose
// reductions no longer pass go through full Delta Debugging again.
//
// Rerun runs Run's pipeline untraced and without the import-snapshot memo,
// whatever cfg's Tracer, Snapshots and DisableMemo say.
func Rerun(prev *Result, newCases []appspec.TestCase, cfg Config) (*Result, error) {
	app := prev.Original.Clone()
	app.Oracle = append(app.Oracle, newCases...)
	cfg.Tracer, cfg.DisableMemo = nil, true
	return pipeline(app, prev, cfg)
}

// reuseReduction accepts prev's reduction of module name, with prev's
// outcome for it, when it still passes the runner's oracle. It reports
// false when prev is nil, did not reduce the module, or the reduction
// fails; the module then goes through DD.
func reuseReduction(run *runner, prev *Result, name string) (ModuleResult, bool) {
	if prev == nil {
		return ModuleResult{}, false
	}
	for _, m := range prev.Modules {
		if m.Module != name {
			continue
		}
		if m.Skipped != "" || len(m.Removed) == 0 {
			return ModuleResult{}, false
		}
		candidate, ok := previousReduction(run, prev, name)
		if !ok || !run.test(name, candidate) {
			return ModuleResult{}, false
		}
		run.overrides[name] = candidate
		return m, true
	}
	return ModuleResult{}, false
}

// previousReduction returns the module's file in prev's optimized image,
// parsed through the run's parse cache. When the reduction is accepted
// again, the new image holds the same text at the same path, so the final
// verification finds this parse in the cache.
func previousReduction(run *runner, prev *Result, name string) (*pylang.Module, bool) {
	path, src, ok := moduleFile(prev.App, name)
	if !ok {
		return nil, false
	}
	ast, perr := run.astCache.Parse(path, name, src)
	if perr != nil {
		return nil, false
	}
	return ast, true
}
