// Package baselines implements the two application-level debloaters the
// paper compares against in Table 2:
//
//   - FaaSLight (Liu et al., TOSEM'23): static reachability analysis at
//     statement granularity. It keeps every attribute the application's
//     call graph can reach, plus the transitive intra-module dependencies
//     of kept code, and removes the rest. As a safeguard it retains the
//     original code for on-demand retrieval, which costs extra memory and
//     a per-cold-start overhead (§3.1: "FaaSLight additionally retrieves
//     the original code as a safeguard, yielding additional overheads").
//   - Vulture: a dead-code detector that flags symbols never referenced
//     anywhere in the codebase. It is maximally conservative — a single
//     textual mention anywhere keeps an attribute — which is why its
//     reported improvements are small.
//
// Both operate purely statically (no oracle executions), which makes them
// fast but unable to remove attributes that are referenced yet dynamically
// dead — the gap λ-trim's DD closes.
package baselines

import (
	"errors"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/appspec"
	"repro/internal/callgraph"
	"repro/internal/debloat"
	"repro/internal/profiler"
	"repro/internal/pylang"
	"repro/internal/pyparser"
	"repro/internal/pyruntime"
)

// Result describes a baseline debloating outcome.
type Result struct {
	App      *appspec.App
	Original *appspec.App
	// RemovedPerModule maps module -> attributes removed.
	RemovedPerModule map[string][]string
	// SafeguardOverheadMS is added to every cold start (FaaSLight only).
	SafeguardOverheadMS float64
	// SafeguardMemoryMB is retained for original-code retrieval
	// (FaaSLight only).
	SafeguardMemoryMB float64
}

// TotalRemoved sums removed attributes.
func (r *Result) TotalRemoved() int {
	n := 0
	for _, rs := range r.RemovedPerModule {
		n += len(rs)
	}
	return n
}

// FaaSLightSafeguard models the safeguard's cost: loading the retained
// original-code index on every cold start.
const (
	FaaSLightSafeguardMS = 35.0
	// FaaSLightSafeguardMemFrac is the fraction of removed footprint that
	// the safeguard's retained code map keeps resident.
	FaaSLightSafeguardMemFrac = 0.15
)

// FaaSLight runs the reachability-based debloater over the app's top-K
// profiled modules (same candidate selection as λ-trim so the comparison
// isolates the mechanism, not the targeting).
func FaaSLight(app *appspec.App, k int) (*Result, error) {
	report, err := analyzer.Analyze(app.Image, app.Entry, app.Handler)
	if err != nil {
		return nil, err
	}
	prof, err := profiler.Run(app.Image, app.Entry, profiler.Options{Scoring: profiler.Combined})
	if err != nil {
		return nil, err
	}
	optimized := app.Clone()
	res := &Result{
		App:                 optimized,
		Original:            app,
		RemovedPerModule:    make(map[string][]string),
		SafeguardOverheadMS: FaaSLightSafeguardMS,
	}

	// FaaSLight's reachability is whole-program: attributes a *library*
	// imports from another module are reachable too. Union the app's
	// protected sets with per-file analyses of every library module.
	protected := make(map[string]map[string]bool)
	union := func(module, attr string) {
		set, ok := protected[module]
		if !ok {
			set = make(map[string]bool)
			protected[module] = set
		}
		set[attr] = true
	}
	for m, attrs := range report.Protected {
		for a := range attrs {
			union(m, a)
		}
	}
	for _, path := range app.Image.List() {
		if !strings.HasPrefix(path, pyruntime.SitePackages) || !strings.HasSuffix(path, ".py") {
			continue
		}
		src, err := app.Image.Read(path)
		if err != nil {
			continue
		}
		ast, err := pyparser.Parse(pathToModule(path), src)
		if err != nil {
			continue
		}
		libGraph := callgraph.Analyze(ast, "")
		for m, attrs := range libGraph.Accessed {
			for a := range attrs {
				union(m, a)
			}
		}
	}

	for _, mp := range prof.TopK(k) {
		removed, e := reachabilityTrim(optimized, mp.Name, protected[mp.Name])
		if e != nil {
			continue // modules that cannot be analyzed are left untouched
		}
		if len(removed) > 0 {
			res.RemovedPerModule[mp.Name] = removed
		}
	}
	// Safeguard: the original image is retained alongside; model its
	// resident overhead as a fraction of what was trimmed.
	res.SafeguardMemoryMB = safeguardMemory(app, optimized)
	optimized.SetupDelayMS += 0 // cold path unchanged; init overhead modeled by caller
	return res, nil
}

// reachabilityTrim removes, at statement granularity, every attribute of
// module that is (a) not protected by the app's call graph and (b) not
// referenced by any kept statement of the module itself. This is a
// fixpoint: removing an attribute may orphan others, but conservatism goes
// the other way — anything referenced stays.
func reachabilityTrim(app *appspec.App, module string, protected map[string]bool) ([]string, error) {
	path, src, ok := moduleFile(app, module)
	if !ok {
		return nil, errNotLibrary
	}
	ast, err := pyparser.Parse(module, src)
	if err != nil {
		return nil, err
	}

	// Seed: protected attributes and names referenced by non-binding
	// statements (module-level expressions, magic assignments).
	keep := make(map[string]bool, len(protected))
	for a := range protected {
		keep[a] = true
	}
	binders := make(map[string][]pylang.Stmt)
	for _, s := range ast.Body {
		names := pylang.BoundNames(s)
		if len(names) == 0 || bindsMagic(names) {
			for _, ref := range referencedNames(s) {
				keep[ref] = true
			}
			continue
		}
		for _, n := range names {
			binders[n] = append(binders[n], s)
		}
	}

	// Fixpoint: a kept attribute keeps everything its binding statements
	// reference.
	for changed := true; changed; {
		changed = false
		for name := range keep {
			for _, s := range binders[name] {
				for _, ref := range referencedNames(s) {
					if _, binds := binders[ref]; binds && !keep[ref] {
						keep[ref] = true
						changed = true
					}
				}
			}
		}
	}

	var removed []string
	var kept []pylang.Stmt
	for _, s := range ast.Body {
		names := pylang.BoundNames(s)
		if len(names) == 0 || bindsMagic(names) {
			kept = append(kept, s)
			continue
		}
		// Statement granularity: keep the whole statement if any bound
		// name is kept (the coarseness λ-trim's §6.1 argues against).
		anyKept := false
		for _, n := range names {
			if keep[n] {
				anyKept = true
				break
			}
		}
		if anyKept {
			kept = append(kept, s)
			continue
		}
		removed = append(removed, names...)
	}
	if len(removed) == 0 {
		return nil, nil
	}
	app.Image.Write(path, pylang.PrintStmts(kept))
	return removed, nil
}

// Vulture removes only attributes whose names appear nowhere else in the
// entire image (application or any library). One mention anywhere keeps
// them.
func Vulture(app *appspec.App) (*Result, error) {
	optimized := app.Clone()
	res := &Result{
		App:              optimized,
		Original:         app,
		RemovedPerModule: make(map[string][]string),
	}

	// Build the set of all referenced names across every file.
	referenced := make(map[string]bool)
	for _, path := range optimized.Image.List() {
		src, err := optimized.Image.Read(path)
		if err != nil {
			continue
		}
		ast, err := pyparser.Parse(path, src)
		if err != nil {
			continue
		}
		for _, s := range ast.Body {
			binds := map[string]bool{}
			for _, n := range pylang.BoundNames(s) {
				binds[n] = true
			}
			for _, ref := range referencedNames(s) {
				referenced[ref] = true
			}
			// A def's own body references count (Vulture scans text).
			_ = binds
		}
	}

	for _, path := range optimized.Image.List() {
		if !strings.HasPrefix(path, pyruntime.SitePackages) || !strings.HasSuffix(path, ".py") {
			continue
		}
		// A file the importer never loads for its module name (an
		// image-root file shadows it) is not the app's library.
		module := pathToModule(path)
		loaded, src, ok := moduleFile(optimized, module)
		if !ok || loaded != path {
			continue
		}
		ast, err := pyparser.Parse(path, src)
		if err != nil {
			continue
		}
		var kept []pylang.Stmt
		var removed []string
		for _, s := range ast.Body {
			names := pylang.BoundNames(s)
			if len(names) == 0 || bindsMagic(names) {
				kept = append(kept, s)
				continue
			}
			allDead := true
			for _, n := range names {
				if referenced[n] || strings.HasPrefix(n, "__") {
					allDead = false
					break
				}
			}
			if allDead {
				removed = append(removed, names...)
			} else {
				kept = append(kept, s)
			}
		}
		if len(removed) > 0 {
			res.RemovedPerModule[module] = removed
			optimized.Image.Write(path, pylang.PrintStmts(kept))
		}
	}
	return res, nil
}

var errNotLibrary = errors.New("baselines: not a site-packages module")

func bindsMagic(names []string) bool {
	for _, n := range names {
		if pyruntime.MagicAttrs[n] {
			return true
		}
	}
	return false
}

// referencedNames returns every identifier read anywhere inside stmt,
// including in nested defs/classes (conservative textual reachability).
func referencedNames(s pylang.Stmt) []string {
	var out []string
	pylang.Walk(s, func(n pylang.Node) bool {
		switch v := n.(type) {
		case *pylang.NameExpr:
			out = append(out, v.Name)
		case *pylang.AttrExpr:
			out = append(out, v.Attr)
		case *pylang.FromImportStmt:
			for _, a := range v.Names {
				out = append(out, a.Name)
			}
		}
		return true
	})
	return out
}

// moduleFile returns the file the importer loads for a module name from the
// app image, and its source, when that file is under site-packages: an
// image-root file that shadows a library is application code.
func moduleFile(app *appspec.App, name string) (path, src string, ok bool) {
	path, src, ok = pyruntime.ModuleFile(app.Image, name)
	return path, src, ok && strings.HasPrefix(path, pyruntime.SitePackages)
}

func pathToModule(path string) string {
	p := strings.TrimPrefix(path, pyruntime.SitePackages)
	p = strings.TrimSuffix(p, "/__init__.py")
	p = strings.TrimSuffix(p, ".py")
	return strings.ReplaceAll(p, "/", ".")
}

// safeguardMemory estimates the resident overhead of FaaSLight's original-
// code retrieval map from the image-size delta.
func safeguardMemory(original, optimized *appspec.App) float64 {
	delta := float64(original.Image.TotalSize()-optimized.Image.TotalSize()) / (1 << 20)
	if delta < 0 {
		delta = 0
	}
	return delta * FaaSLightSafeguardMemFrac
}

// VerifyBehaviour re-runs the app's oracle against the optimized image and
// reports whether behaviour is preserved. Static baselines can break apps
// (no oracle in the loop); Table 2's comparison assumes the reported
// configurations worked.
func VerifyBehaviour(res *Result) bool {
	return debloat.VerifyApp(res.App) == nil
}
