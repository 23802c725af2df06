package pyruntime

import (
	"strings"

	"repro/internal/pylang"
)

// Module search roots, in order. Application code lives at the image root;
// third-party libraries live under site-packages (which is the directory
// λ-trim's debloater rewrites).
var searchRoots = []string{"", "site-packages/"}

// SitePackages is the prefix for library code inside a deployment image.
const SitePackages = "site-packages/"

// Import loads a dotted module name, executing each package on the path
// root-first, exactly like CPython: "import a.b.c" ensures a, a.b and a.b.c
// are all in the module table, and returns the leaf module.
func (in *Interp) Import(dotted string) (*ModuleV, *PyErr) {
	parts := strings.Split(dotted, ".")
	var mod *ModuleV
	prefix := ""
	for i, part := range parts {
		if prefix == "" {
			prefix = part
		} else {
			prefix = prefix + "." + part
		}
		m, err := in.importOne(prefix)
		if err != nil {
			return nil, err
		}
		// Bind the submodule as an attribute of its parent package. The memo
		// notes the binding first, to see the value it replaces.
		if i > 0 {
			parentName := strings.Join(parts[:i], ".")
			parent := in.modules[parentName]
			if parent != nil {
				in.noteBinding(parentName, part, prefix)
				if parent.Dict.Set(part, m) {
					in.Alloc.Alloc(64)
				}
			}
		}
		mod = m
	}
	return mod, nil
}

// importOne loads a single fully-qualified module (all parents loaded).
// When a snapshot cache is attached, the call is an import "window": a
// validated cache entry replays the whole window (including nested imports)
// without re-interpreting, and a miss records the window for later replay.
func (in *Interp) importOne(name string) (*ModuleV, *PyErr) {
	// A module still on importStack is already in the table, so a cyclic
	// import returns the partially-initialized module, as CPython does.
	if m, ok := in.modules[name]; ok {
		in.noteLoadedDep(name)
		return m, nil
	}

	src, found := in.resolveSourceCached(name)
	if !found {
		return nil, in.NewExc("ModuleNotFoundError", "No module named '%s'", name)
	}

	var rec *snapRecorder
	volatile := false
	if in.snapActive() {
		if in.volatile[name] {
			// Probe-specific content (see SetVolatile): execute live, record
			// nothing, and stop the enclosing windows from capturing.
			volatile = true
			in.poisonOpenWindows()
		} else {
			fp := in.moduleFP(name, src)
			if entry := in.snap.lookup(in, name, fp); entry != nil {
				return in.replayEntry(entry), nil
			}
			rec = in.beginWindow(name, fp)
		}
	}

	body, file := in.moduleBody(name, src)

	// __name__ and __file__ plus every name the body binds at top level,
	// its own submodules included.
	mod := &ModuleV{Name: name, Dict: newNamespaceSize(2 + staticBinds(name, body)), File: file}
	in.Alloc.Alloc(SizeOf(mod))
	mod.Dict.Set("__name__", StrV(name))
	mod.Dict.Set("__file__", StrV(file))
	in.modules[name] = mod
	in.importStack = append(in.importStack, name)
	if rec != nil {
		in.noteCreated(name, rec.bodyFP)
	}

	for _, h := range in.hooks {
		h.BeforeModuleExec(name)
	}
	fr := &frame{globals: mod.Dict, module: name}
	_, err := in.execStmts(fr, body)
	for _, h := range in.hooks {
		if err != nil {
			h.AfterModuleExec(name, err)
		} else {
			h.AfterModuleExec(name, nil)
		}
	}
	in.importStack = in.importStack[:len(in.importStack)-1]
	if rec != nil {
		in.endWindow(rec, err)
	} else if volatile && err == nil {
		// Publish an unmatchable state fingerprint: entries that record a
		// dependency on this module must never validate in another run.
		in.sfp[name] = newPoison()
	}
	if err != nil {
		delete(in.modules, name)
		return nil, err
	}
	return mod, nil
}

// staticBinds counts the names a module body's top-level statements bind
// (pylang.BoundNames), plus one for each absolute import of one of its own
// submodules, which the Import loop binds into it. It sizes the module's
// namespace before the body runs.
func staticBinds(name string, body []pylang.Stmt) int {
	n := 0
	own := func(dotted string) {
		if rest, ok := strings.CutPrefix(dotted, name); ok && strings.HasPrefix(rest, ".") {
			n++
		}
	}
	for _, s := range body {
		n += pylang.NumBoundNames(s)
		switch v := s.(type) {
		case *pylang.ImportStmt:
			for _, a := range v.Names {
				own(a.Name)
			}
		case *pylang.FromImportStmt:
			if v.Level == 0 {
				own(v.Module)
			}
		}
	}
	return n
}

// moduleSource is a resolved module origin: either a debloater AST override
// or raw file source. It carries enough to fingerprint the module body
// without parsing it.
type moduleSource struct {
	override *pylang.Module // non-nil for overrides
	path     string
	src      string // file source (empty for overrides)
}

// fsResolved is the image-level memo of a file-backed module resolution,
// stored in the FS derived cache so every oracle-run interpreter over the
// same image shares one search-root walk per name.
type fsResolved struct {
	path string
	src  string
	ok   bool
}

// resolveSourceCached locates a dotted name through two cache layers: the
// per-interpreter srcCache (which also covers debloater overrides) and the
// image-level derived cache for plain files. The importer and the snapshot
// validator both resolve the same names many times per run, and a fresh
// interpreter is spawned per oracle run over an unchanging image.
func (in *Interp) resolveSourceCached(name string) (moduleSource, bool) {
	if e, hit := in.srcCache[name]; hit {
		return e.src, e.ok
	}
	var src moduleSource
	var ok bool
	if ast, hasOv := in.overrides[name]; hasOv {
		src, ok = moduleSource{override: ast, path: "<override:" + name + ">"}, true
	} else if v, hit := in.FS.DerivedGet("resolve\x00" + name); hit {
		r := v.(fsResolved)
		src, ok = moduleSource{path: r.path, src: r.src}, r.ok
	} else {
		src, ok = in.resolveFile(name)
		in.FS.DerivedPut("resolve\x00"+name, fsResolved{path: src.path, src: src.src, ok: ok})
	}
	if in.srcCache == nil {
		in.srcCache = make(map[string]srcCacheEnt)
	}
	in.srcCache[name] = srcCacheEnt{src: src, ok: ok}
	return src, ok
}

// moduleFP returns the body fingerprint for a name resolved through
// resolveSourceCached. File-backed fingerprints are memoized on the image
// (shared by all runs); override fingerprints stay per-interpreter.
func (in *Interp) moduleFP(name string, src moduleSource) string {
	if e, hit := in.srcCache[name]; hit && e.fpDone {
		return e.fp
	}
	var fp string
	if src.override == nil {
		if v, hit := in.FS.DerivedGet("modfp\x00" + name); hit {
			fp = v.(string)
		} else {
			fp = in.bodyFingerprint(src)
			in.FS.DerivedPut("modfp\x00"+name, fp)
		}
	} else {
		fp = in.bodyFingerprint(src)
	}
	in.srcCache[name] = srcCacheEnt{src: src, ok: true, fp: fp, fpDone: true}
	return fp
}

// resolveFile finds a name under the search roots as either pkg/mod.py or
// pkg/mod/__init__.py. Overrides are handled by resolveSourceCached.
func (in *Interp) resolveFile(name string) (moduleSource, bool) {
	rel := strings.ReplaceAll(name, ".", "/")
	for _, root := range searchRoots {
		for _, candidate := range []string{root + rel + ".py", root + rel + "/__init__.py"} {
			src, err := in.FS.Read(candidate)
			if err != nil {
				continue
			}
			return moduleSource{path: candidate, src: src}, true
		}
	}
	return moduleSource{}, false
}

// moduleBody parses a resolved source into an executable body.
func (in *Interp) moduleBody(name string, src moduleSource) ([]pylang.Stmt, string) {
	if src.override != nil {
		return src.override.Body, src.path
	}
	mod, perr := in.astCache.Parse(in.FS, src.path, name, src.src)
	if perr != nil {
		// Surface parse errors as a module body that raises; the importer
		// converts it into an ImportError.
		return []pylang.Stmt{&pylang.RaiseStmt{
			Value: &pylang.CallExpr{
				Func: &pylang.NameExpr{Name: "ImportError"},
				Args: []pylang.Expr{&pylang.StringLit{Value: perr.Error()}},
			},
		}}, src.path
	}
	return mod.Body, src.path
}

// execFromImport implements "from X import a, b" including relative levels
// and star imports.
func (in *Interp) execFromImport(fr *frame, v *pylang.FromImportStmt) *PyErr {
	target := v.Module
	if v.Level > 0 {
		pkg := fr.module
		// A package's own __init__ executes with module name == package, so
		// one level strips nothing extra for it; for plain modules a level
		// strips the final component. We approximate CPython by treating
		// the current module as a package iff its file is an __init__.
		isPkg := false
		if m, ok := in.modules[fr.module]; ok {
			isPkg = strings.HasSuffix(m.File, "__init__.py") || strings.HasPrefix(m.File, "<override:")
		}
		for i := 0; i < v.Level; i++ {
			if i == 0 && isPkg {
				continue
			}
			dot := strings.LastIndexByte(pkg, '.')
			if dot < 0 {
				return in.NewExc("ImportError", "attempted relative import beyond top-level package")
			}
			pkg = pkg[:dot]
		}
		if target == "" {
			target = pkg
		} else {
			target = pkg + "." + target
		}
	}
	mod, err := in.Import(target)
	if err != nil {
		return err
	}
	if v.Star {
		return in.importStar(fr, mod)
	}
	for _, alias := range v.Names {
		val, ok := mod.Dict.Get(alias.Name)
		if !ok {
			// Fall back to importing a submodule, as CPython does for
			// "from pkg import submodule".
			sub, subErr := in.Import(target + "." + alias.Name)
			if subErr != nil {
				return in.NewExc("ImportError", "cannot import name '%s' from '%s'", alias.Name, target)
			}
			val = sub
		}
		bound := alias.Name
		if alias.AsName != "" {
			bound = alias.AsName
		}
		in.bind(fr, bound, val)
	}
	return nil
}

func (in *Interp) importStar(fr *frame, mod *ModuleV) *PyErr {
	// Respect __all__ when present.
	if allV, ok := mod.Dict.Get("__all__"); ok {
		if lst, ok := allV.(*ListV); ok {
			for _, nameV := range lst.Elems {
				name, ok := nameV.(StrV)
				if !ok {
					return in.NewExc("TypeError", "__all__ items must be strings")
				}
				val, ok := mod.Dict.Get(string(name))
				if !ok {
					return in.NewExc("AttributeError", "module '%s' has no attribute '%s' (via __all__)", mod.Name, name)
				}
				in.bind(fr, string(name), val)
			}
			return nil
		}
	}
	for _, name := range mod.Dict.Names() {
		if strings.HasPrefix(name, "_") {
			continue
		}
		v, _ := mod.Dict.Get(name)
		in.bind(fr, name, v)
	}
	return nil
}

// MagicAttrs is the set of module attributes excluded from Delta Debugging
// (§6.3 of the paper: "all the magic attributes of the module ... are
// excluded from DD").
var MagicAttrs = map[string]bool{
	"__name__": true, "__file__": true, "__doc__": true,
	"__package__": true, "__loader__": true, "__spec__": true,
	"__all__": true, "__version__": true, "__path__": true,
}
