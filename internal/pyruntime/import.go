package pyruntime

import (
	"strings"

	"repro/internal/pylang"
	"repro/internal/vfs"
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

	src, found := in.resolveSource(name)
	if !found {
		return nil, in.NewExc("ModuleNotFoundError", "No module named '%s'", name)
	}

	var rec *snapRecorder
	volatile := false
	if in.snapActive() {
		if name == in.volatile {
			// Probe-specific content (see SetVolatile): execute live, record
			// nothing, and stop the enclosing windows from capturing.
			volatile = true
			in.poisonOpenWindows()
		} else {
			fp := in.moduleFP(src)
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

// srcRecord is one image's record of a dotted module name: the file the
// importer resolves (image root before site-packages), its source, its
// content digest and the body fingerprint the import memo keys on. It is
// filled on first use and kept in the image's derived cache, so every
// interpreter over the image shares one search-root walk and one digest per
// name; FS.Write and FS.Remove drop it. Overrides are per interpreter and
// never stored here, and neither is a parsed body: the ASTCache owns those.
type srcRecord struct {
	astKey // the file's path and content digest
	src    string
	fp     string
}

// srcKey keys a name's srcRecord in the image's derived cache.
type srcKey string

// fileRecord returns fs's record of a dotted name, nil when no search root
// holds it.
func fileRecord(fs *vfs.FS, name string) *srcRecord {
	if v, hit := fs.DerivedGet(srcKey(name)); hit {
		return v.(*srcRecord)
	}
	var rec *srcRecord
	rel := strings.ReplaceAll(name, ".", "/")
search:
	for _, root := range searchRoots {
		for _, candidate := range []string{root + rel + ".py", root + rel + "/__init__.py"} {
			if src, err := fs.Read(candidate); err == nil {
				digest := contentDigest(src)
				rec = &srcRecord{
					astKey: astKey{path: candidate, digest: digest},
					src:    src,
					fp:     hashStrings("file", candidate, digest),
				}
				break search
			}
		}
	}
	fs.DerivedPut(srcKey(name), rec)
	return rec
}

// ModuleFile returns the file the importer loads for a dotted module name
// from fs, and its source.
func ModuleFile(fs *vfs.FS, name string) (path, src string, ok bool) {
	rec := fileRecord(fs, name)
	if rec == nil {
		return "", "", false
	}
	return rec.path, rec.src, true
}

// moduleSource is a resolved module origin in one interpreter: a debloater
// AST override, or else the image's record of the module's file.
type moduleSource struct {
	override *pylang.Module
	file     *srcRecord
}

// resolveSource locates a dotted name: this interpreter's override first,
// then the image's record.
func (in *Interp) resolveSource(name string) (moduleSource, bool) {
	if ast, ok := in.overrides[name]; ok {
		return moduleSource{override: ast}, true
	}
	rec := fileRecord(in.FS, name)
	return moduleSource{file: rec}, rec != nil
}

// moduleFP returns a resolved source's body fingerprint. An override's is
// memoized on the snapshot cache per AST, a file's on the image's record.
func (in *Interp) moduleFP(src moduleSource) string {
	if src.override != nil {
		return in.snap.astFingerprint(src.override)
	}
	return src.file.fp
}

// moduleBody parses a resolved source into an executable body, and returns
// it with the module's __file__.
func (in *Interp) moduleBody(name string, src moduleSource) ([]pylang.Stmt, string) {
	if src.override != nil {
		return src.override.Body, "<override:" + name + ">"
	}
	mod, perr := in.astCache.parse(src.file.astKey, name, src.file.src)
	if perr != nil {
		// Surface parse errors as a module body that raises; the importer
		// converts it into an ImportError.
		return []pylang.Stmt{&pylang.RaiseStmt{
			Value: &pylang.CallExpr{
				Func: &pylang.NameExpr{Name: "ImportError"},
				Args: []pylang.Expr{&pylang.StringLit{Value: perr.Error()}},
			},
		}}, src.file.path
	}
	return mod.Body, src.file.path
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
