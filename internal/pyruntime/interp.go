package pyruntime

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/pylang"
	"repro/internal/pyparser"
	"repro/internal/simtime"
	"repro/internal/vfs"
)

// Default execution parameters.
const (
	// StmtCost is the virtual time charged per executed statement.
	StmtCost = 800 * time.Nanosecond
	// DefaultFuel bounds the number of statements a single Run may execute;
	// it exists to turn accidental infinite loops in corpus code into
	// diagnosable errors instead of hangs.
	DefaultFuel = 80_000_000
	// MaxDepth bounds call recursion.
	MaxDepth = 200
)

// RemoteCall records one invocation of the remote_call builtin — the
// serverless analogue of an external side effect (S3 put, DB write, child
// lambda invoke). The debloater's oracle compares these journals in
// addition to stdout, per §5.3 of the paper.
type RemoteCall struct {
	Service string
	Op      string
	Payload string // canonical repr of the payload value
}

// ImportHook observes module executions. The profiler registers one to
// measure marginal import time and memory, mirroring how the paper patches
// CPython's import machinery with measurements "before each module
// execution".
type ImportHook interface {
	BeforeModuleExec(name string)
	AfterModuleExec(name string, err error)
}

// fatalError aborts execution through panic/recover; it is used for
// resource exhaustion that must not be catchable by Python-level code.
type fatalError struct{ err error }

// Interp is one interpreter instance: an isolated address space with its own
// module cache, clock and allocator. λ-trim's "module isolation" (§7 of the
// paper, fresh process per phase) corresponds to constructing a fresh Interp.
type Interp struct {
	Clock *simtime.Clock
	Alloc *simtime.Allocator

	// Stdout receives print output; the oracle compares its contents.
	Stdout io.Writer

	// FS is the deployment image the importer reads from.
	FS *vfs.FS

	// RemoteLog journals remote_call invocations for oracle equivalence.
	RemoteLog []RemoteCall

	modules    map[string]*ModuleV       // sys.modules
	overrides  map[string]*pylang.Module // debloater AST overlays
	astCache   *ASTCache                 // parse cache shared via SetASTCache
	hooks      []ImportHook
	builtins   *Namespace
	excClasses map[string]*ClassV

	depth     int
	fuel      int64
	idCounter int64 // id() builtin token source

	importStack []string // active imports, for cycle detection

	// Snapshot memoization state (see snapshot.go). snap is the shared
	// import-window cache; recStack holds the open recording windows; sfp
	// maps each loaded module to its state fingerprint. builtinPtrs/excPtrs
	// lazily index per-interp singletons for symbolic capture.
	snap        *SnapshotCache
	recStack    []*snapRecorder
	sfp         map[string]string
	builtinPtrs map[Value]string
	excPtrs     map[*ClassV]string

	// srcCache memoizes resolveSource + bodyFingerprint per dotted name for
	// this interpreter's lifetime. Sound because the image and the override
	// set are fixed while a run executes; SetOverride invalidates its name.
	// This keeps snapshot validation (which re-checks the fingerprint of
	// every module a cached window created) off the filesystem/hash path.
	srcCache map[string]srcCacheEnt

	// volatile names modules whose content changes on every run (Delta
	// Debugging candidates): the importer executes them live, skips their
	// import window entirely, and stops enclosing windows from recording —
	// see SetVolatile.
	volatile map[string]bool
}

// srcCacheEnt is a memoized module resolution; fp is filled lazily on the
// first fingerprint request (fpDone distinguishes "not yet hashed").
type srcCacheEnt struct {
	src    moduleSource
	ok     bool
	fp     string
	fpDone bool
}

// New constructs an interpreter over the given image.
func New(fs *vfs.FS) *Interp {
	in := &Interp{
		Clock:      simtime.NewClock(),
		Alloc:      simtime.NewAllocator(),
		Stdout:     &strings.Builder{},
		FS:         fs,
		modules:    make(map[string]*ModuleV),
		overrides:  make(map[string]*pylang.Module),
		astCache:   NewASTCache(),
		fuel:       DefaultFuel,
		excClasses: buildExceptionClasses(),
	}
	in.builtins = in.buildBuiltins()
	return in
}

// ASTCache is a concurrency-safe parse cache keyed by path+content. It is
// shared across interpreter instances: the debloater creates a fresh Interp
// per oracle run (module isolation) but source text is immutable during a
// run, so parses can be reused — including across the goroutines of a
// parallel Delta Debugging session.
type ASTCache struct {
	mu sync.RWMutex
	m  map[string]*pylang.Module
}

// NewASTCache returns an empty cache.
func NewASTCache() *ASTCache {
	return &ASTCache{m: make(map[string]*pylang.Module)}
}

// Parse returns the parse of src, the source of path in fs, and keeps it for
// every later caller asking for the same path and content. The key is the
// image's content hash when path is in fs: the cache is shared across
// interpreters and apps, and hashing once per image beats building (and
// hashing) a path+source map key on every import.
func (c *ASTCache) Parse(fs *vfs.FS, path, name, src string) (*pylang.Module, error) {
	key := path + "\x00" + src
	if h, ok := fs.ContentHash(path); ok {
		key = path + "\x00" + h
	}
	c.mu.RLock()
	m, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		return m, nil
	}
	m, err := pyparser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.m[key] = m
	c.mu.Unlock()
	return m, nil
}

// SetASTCache shares a parse cache across interpreter instances.
func (in *Interp) SetASTCache(cache *ASTCache) { in.astCache = cache }

// SetSnapshots shares an import-window snapshot cache across interpreter
// instances. It must be called before the first Import: modules loaded
// without snapshots enabled have no state fingerprint and permanently
// invalidate windows that read them. Interpreters with import hooks ignore
// the cache (the profiler must observe live execution).
func (in *Interp) SetSnapshots(cache *SnapshotCache) {
	in.snap = cache
	if in.sfp == nil {
		in.sfp = make(map[string]string)
	}
}

// SetOverride installs an AST overlay for a module name: the importer
// executes the overlay instead of parsing the module's file. The debloater
// uses this to test candidate reductions without reprinting source on every
// DD iteration; the accepted final reduction is still printed back to the
// image.
func (in *Interp) SetOverride(name string, mod *pylang.Module) {
	in.overrides[name] = mod
	delete(in.srcCache, name)
}

// SetVolatile declares a module's content as probe-specific: snapshot
// memoization neither records nor replays its import, and any window open
// when it executes is not captured (a cached entry referencing it could
// never validate again, so recording it would only grow the cache with dead
// entries). The debloater marks each Delta Debugging candidate volatile;
// accepted reductions are stable across the remaining probes and stay
// memoizable. Simulated observables are unaffected — the module simply
// always executes live.
func (in *Interp) SetVolatile(name string) {
	if in.volatile == nil {
		in.volatile = make(map[string]bool, 1)
	}
	in.volatile[name] = true
}

// AddImportHook registers a hook observing module executions.
func (in *Interp) AddImportHook(h ImportHook) { in.hooks = append(in.hooks, h) }

// SetFuel overrides the statement budget.
func (in *Interp) SetFuel(n int64) { in.fuel = n }

// OutputString returns accumulated stdout when Stdout is the default buffer.
func (in *Interp) OutputString() string {
	if sb, ok := in.Stdout.(*strings.Builder); ok {
		return sb.String()
	}
	return ""
}

// Modules returns the loaded module table (sys.modules).
func (in *Interp) Modules() map[string]*ModuleV { return in.modules }

// frame is one execution context.
type frame struct {
	globals *Namespace
	env     *Env // nil at module level
	module  string
}

// ctrlKind describes non-linear control flow from a statement.
type ctrlKind int

const (
	ctrlNone ctrlKind = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

type ctrl struct {
	kind  ctrlKind
	value Value // for return
}

var ctrlNormal = ctrl{kind: ctrlNone}

// RunModule executes top-level statements in the context of module mod.
// It is the entry point used by the importer and by RunMain.
func (in *Interp) RunModule(mod *ModuleV, body []pylang.Stmt) (err *PyErr) {
	defer in.trapFatal(&err)
	fr := &frame{globals: mod.Dict, module: mod.Name}
	_, perr := in.execStmts(fr, body)
	return perr
}

// CallFunction invokes a Python function value with the given arguments,
// trapping fatal resource errors. It is the embedding API the serverless
// harness uses to call a lambda handler.
func (in *Interp) CallFunction(fn Value, args []Value) (v Value, err *PyErr) {
	defer in.trapFatal(&err)
	return in.call(fn, args, nil, pylang.Pos{})
}

func (in *Interp) trapFatal(err **PyErr) {
	if r := recover(); r != nil {
		if f, ok := r.(fatalError); ok {
			*err = in.NewExc("RuntimeError", "fatal: %v", f.err)
			return
		}
		panic(r)
	}
}

func (in *Interp) chargeStmt() {
	in.Clock.Advance(StmtCost)
	in.fuel--
	if in.fuel <= 0 {
		panic(fatalError{fmt.Errorf("statement budget exhausted")})
	}
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (in *Interp) execStmts(fr *frame, body []pylang.Stmt) (ctrl, *PyErr) {
	for _, s := range body {
		c, err := in.execStmt(fr, s)
		if err != nil {
			return ctrlNormal, err
		}
		if c.kind != ctrlNone {
			return c, nil
		}
	}
	return ctrlNormal, nil
}

func (in *Interp) execStmt(fr *frame, s pylang.Stmt) (ctrl, *PyErr) {
	in.chargeStmt()
	switch v := s.(type) {
	case *pylang.PassStmt:
		return ctrlNormal, nil
	case *pylang.ExprStmt:
		_, err := in.eval(fr, v.Value)
		return ctrlNormal, err
	case *pylang.AssignStmt:
		value, err := in.eval(fr, v.Value)
		if err != nil {
			return ctrlNormal, err
		}
		for _, t := range v.Targets {
			if err := in.assign(fr, t, value); err != nil {
				return ctrlNormal, err
			}
		}
		return ctrlNormal, nil
	case *pylang.AugAssignStmt:
		cur, err := in.eval(fr, v.Target)
		if err != nil {
			return ctrlNormal, err
		}
		rhs, err := in.eval(fr, v.Value)
		if err != nil {
			return ctrlNormal, err
		}
		res, err := in.binop(v.Op, cur, rhs, v.Pos)
		if err != nil {
			return ctrlNormal, err
		}
		return ctrlNormal, in.assign(fr, v.Target, res)
	case *pylang.ReturnStmt:
		var value Value = None
		if v.Value != nil {
			var err *PyErr
			value, err = in.eval(fr, v.Value)
			if err != nil {
				return ctrlNormal, err
			}
		}
		return ctrl{kind: ctrlReturn, value: value}, nil
	case *pylang.BreakStmt:
		return ctrl{kind: ctrlBreak}, nil
	case *pylang.ContinueStmt:
		return ctrl{kind: ctrlContinue}, nil
	case *pylang.IfStmt:
		cond, err := in.eval(fr, v.Cond)
		if err != nil {
			return ctrlNormal, err
		}
		if Truth(cond) {
			return in.execStmts(fr, v.Body)
		}
		return in.execStmts(fr, v.Else)
	case *pylang.WhileStmt:
		for {
			cond, err := in.eval(fr, v.Cond)
			if err != nil {
				return ctrlNormal, err
			}
			if !Truth(cond) {
				break
			}
			c, err := in.execStmts(fr, v.Body)
			if err != nil {
				return ctrlNormal, err
			}
			if c.kind == ctrlBreak {
				return ctrlNormal, nil
			}
			if c.kind == ctrlReturn {
				return c, nil
			}
			in.chargeStmt() // loop back-edge
		}
		return in.execStmts(fr, v.Else)
	case *pylang.ForStmt:
		iter, err := in.eval(fr, v.Iter)
		if err != nil {
			return ctrlNormal, err
		}
		n, elem, perr := in.loopElems(iter, v.Pos)
		if perr != nil {
			return ctrlNormal, perr
		}
		broke := false
		for i := int64(0); i < n; i++ {
			if err := in.assign(fr, v.Target, elem(i)); err != nil {
				return ctrlNormal, err
			}
			c, err := in.execStmts(fr, v.Body)
			if err != nil {
				return ctrlNormal, err
			}
			if c.kind == ctrlBreak {
				broke = true
				break
			}
			if c.kind == ctrlReturn {
				return c, nil
			}
			in.chargeStmt()
		}
		if !broke {
			return in.execStmts(fr, v.Else)
		}
		return ctrlNormal, nil
	case *pylang.DefStmt:
		defaults, derr := in.evalDefaults(fr, v.Params)
		if derr != nil {
			return ctrlNormal, derr
		}
		fn := &FuncV{
			Name: v.Name, Params: v.Params, Body: v.Body,
			Globals: fr.globals, Module: fr.module, Env: fr.env,
			Defaults: defaults,
		}
		in.Alloc.Alloc(SizeOf(fn) + int64(60*len(v.Body)))
		var value Value = fn
		// Apply decorators innermost-first.
		for i := len(v.Decorators) - 1; i >= 0; i-- {
			dec, err := in.eval(fr, v.Decorators[i])
			if err != nil {
				return ctrlNormal, err
			}
			value, err = in.call(dec, []Value{value}, nil, v.Pos)
			if err != nil {
				return ctrlNormal, err
			}
		}
		in.bind(fr, v.Name, value)
		return ctrlNormal, nil
	case *pylang.ClassStmt:
		return ctrlNormal, in.execClass(fr, v)
	case *pylang.ImportStmt:
		return in.execImport(fr, v)
	case *pylang.FromImportStmt:
		return ctrlNormal, in.execFromImport(fr, v)
	case *pylang.RaiseStmt:
		if v.Value == nil {
			return ctrlNormal, in.NewExc("RuntimeError", "no active exception to re-raise")
		}
		val, err := in.eval(fr, v.Value)
		if err != nil {
			return ctrlNormal, err
		}
		return ctrlNormal, in.raiseValue(val, v.Pos, fr.module)
	case *pylang.TryStmt:
		return in.execTry(fr, v)
	case *pylang.GlobalStmt:
		if fr.env != nil {
			if fr.env.globalNames == nil {
				fr.env.globalNames = make(map[string]bool)
			}
			for _, n := range v.Names {
				fr.env.globalNames[n] = true
			}
		}
		return ctrlNormal, nil
	case *pylang.DelStmt:
		for _, t := range v.Targets {
			if err := in.deleteTarget(fr, t); err != nil {
				return ctrlNormal, err
			}
		}
		return ctrlNormal, nil
	case *pylang.AssertStmt:
		cond, err := in.eval(fr, v.Cond)
		if err != nil {
			return ctrlNormal, err
		}
		if !Truth(cond) {
			msg := ""
			if v.Msg != nil {
				m, err := in.eval(fr, v.Msg)
				if err != nil {
					return ctrlNormal, err
				}
				msg = Str(m)
			}
			return ctrlNormal, in.NewExc("AssertionError", "%s", msg)
		}
		return ctrlNormal, nil
	}
	return ctrlNormal, in.NewExc("RuntimeError", "unknown statement %T", s)
}

// execImport implements "import a.b [as c]".
func (in *Interp) execImport(fr *frame, v *pylang.ImportStmt) (ctrl, *PyErr) {
	for _, alias := range v.Names {
		mod, err := in.Import(alias.Name)
		if err != nil {
			return ctrlNormal, err
		}
		if alias.AsName != "" {
			// "import a.b as c" binds the leaf module.
			in.bind(fr, alias.AsName, mod)
		} else {
			// "import a.b" binds the root package.
			root := alias.Name
			if i := strings.IndexByte(root, '.'); i >= 0 {
				root = root[:i]
			}
			rootMod, ok := in.modules[root]
			if !ok {
				return ctrlNormal, in.NewExc("ImportError", "root module %s missing", root)
			}
			in.bind(fr, root, rootMod)
		}
	}
	return ctrlNormal, nil
}

func (in *Interp) execClass(fr *frame, v *pylang.ClassStmt) *PyErr {
	var base *ClassV
	if len(v.Bases) > 0 {
		baseVal, err := in.eval(fr, v.Bases[0])
		if err != nil {
			return err
		}
		bc, ok := baseVal.(*ClassV)
		if !ok {
			return in.NewExc("TypeError", "class base must be a class, not %s", baseVal.TypeName())
		}
		base = bc
	}
	class := &ClassV{Name: v.Name, Base: base, Dict: NewNamespace(), Module: fr.module}
	if base != nil && base.Exception {
		class.Exception = true
	}
	in.Alloc.Alloc(SizeOf(class))
	// Execute the class body with the class dict as its local namespace.
	// The env tracks insertion order: populating the class dict from Go map
	// iteration would randomize attribute order (and with it dir() output
	// and method resolution diagnostics) across runs.
	classEnv := NewEnv(fr.env)
	classEnv.track = true
	classFrame := &frame{globals: fr.globals, env: classEnv, module: fr.module}
	if _, err := in.execStmts(classFrame, v.Body); err != nil {
		return err
	}
	for _, name := range classEnv.order {
		class.Dict.Set(name, classEnv.vars[name])
	}
	var value Value = class
	for i := len(v.Decorators) - 1; i >= 0; i-- {
		dec, err := in.eval(fr, v.Decorators[i])
		if err != nil {
			return err
		}
		var perr *PyErr
		value, perr = in.call(dec, []Value{value}, nil, v.Pos)
		if perr != nil {
			return perr
		}
	}
	in.bind(fr, v.Name, value)
	return nil
}

func (in *Interp) execTry(fr *frame, v *pylang.TryStmt) (ctrl, *PyErr) {
	c, err := in.execStmts(fr, v.Body)
	if err != nil {
		handled := false
		for _, clause := range v.Excepts {
			match, merr := in.exceptMatches(fr, clause, err)
			if merr != nil {
				err = merr
				break
			}
			if !match {
				continue
			}
			handled = true
			if clause.Name != "" {
				in.bind(fr, clause.Name, err.Value)
			}
			ctx := err
			c, err = in.execStmts(fr, clause.Body)
			// Implicit chaining (CPython's __context__): an exception
			// escaping the handler body carries the one it was handling.
			chainCause(err, ctx)
			break
		}
		if !handled && err != nil && len(v.Finally) > 0 {
			// fall through to finally with the error pending
		}
		_ = handled
	} else if c.kind == ctrlNone && len(v.Else) > 0 {
		c, err = in.execStmts(fr, v.Else)
	}
	if len(v.Finally) > 0 {
		fc, ferr := in.execStmts(fr, v.Finally)
		if ferr != nil {
			return ctrlNormal, ferr // finally's error supersedes
		}
		if fc.kind != ctrlNone {
			return fc, nil
		}
	}
	return c, err
}

func (in *Interp) exceptMatches(fr *frame, clause pylang.ExceptClause, err *PyErr) (bool, *PyErr) {
	if clause.Type == nil {
		return true, nil
	}
	typeVal, terr := in.eval(fr, clause.Type)
	if terr != nil {
		return false, terr
	}
	return in.matchExcClasses(typeVal, err)
}

// matchExcClasses reports whether err matches an evaluated except type
// (a class or tuple of classes).
func (in *Interp) matchExcClasses(typeVal Value, err *PyErr) (bool, *PyErr) {
	classes := []Value{typeVal}
	if tup, ok := typeVal.(*TupleV); ok {
		classes = tup.Elems
	}
	for _, cv := range classes {
		c, ok := cv.(*ClassV)
		if !ok {
			return false, in.NewExc("TypeError", "catching %s is not allowed", cv.TypeName())
		}
		if err.Matches(c) {
			return true, nil
		}
	}
	return false, nil
}

func (in *Interp) raiseValue(val Value, pos pylang.Pos, where string) *PyErr {
	switch t := val.(type) {
	case *InstanceV:
		if t.Class.Exception {
			return &PyErr{Value: t, Pos: pos, Where: where}
		}
		return in.NewExc("TypeError", "exceptions must derive from BaseException")
	case *ClassV:
		if t.Exception {
			inst, err := in.instantiate(t, nil, nil, pos)
			if err != nil {
				return err
			}
			return &PyErr{Value: inst.(*InstanceV), Pos: pos, Where: where}
		}
		return in.NewExc("TypeError", "exceptions must derive from BaseException")
	}
	return in.NewExc("TypeError", "exceptions must derive from BaseException")
}

// evalDefaults evaluates parameter defaults in the defining frame,
// returning a slice aligned with params (nil = required parameter).
func (in *Interp) evalDefaults(fr *frame, params []pylang.Param) ([]Value, *PyErr) {
	var defaults []Value
	for i, p := range params {
		if p.Default == nil {
			continue
		}
		if defaults == nil {
			defaults = make([]Value, len(params))
		}
		dv, err := in.eval(fr, p.Default)
		if err != nil {
			return nil, err
		}
		defaults[i] = dv
	}
	return defaults, nil
}

// bind assigns a simple name in the correct scope.
func (in *Interp) bind(fr *frame, name string, v Value) {
	if fr.env != nil && (fr.env.globalNames == nil || !fr.env.globalNames[name]) {
		fr.env.set(name, v)
		return
	}
	if in.snap != nil {
		// A global bind outside the module's own open import window (e.g. a
		// cross-module `global` assignment) mutates memoized state.
		if n := len(in.recStack); n == 0 || in.recStack[n-1].name != fr.module {
			in.notePoisonModule(fr.module)
		}
	}
	if fr.globals.Set(name, v) {
		in.Alloc.Alloc(64) // new namespace slot
	}
}

func (in *Interp) assign(fr *frame, target pylang.Expr, value Value) *PyErr {
	switch t := target.(type) {
	case *pylang.NameExpr:
		in.bind(fr, t.Name, value)
		return nil
	case *pylang.AttrExpr:
		obj, err := in.eval(fr, t.Value)
		if err != nil {
			return err
		}
		return in.setAttr(obj, t.Attr, value, t.Pos)
	case *pylang.IndexExpr:
		obj, err := in.eval(fr, t.Value)
		if err != nil {
			return err
		}
		if t.Slice {
			return in.NewExc("TypeError", "slice assignment is not supported")
		}
		idx, err := in.eval(fr, t.Index)
		if err != nil {
			return err
		}
		return in.setItem(obj, idx, value, t.Pos)
	case *pylang.TupleExpr:
		return in.unpack(fr, t.Elems, value, t.Pos)
	case *pylang.ListExpr:
		return in.unpack(fr, t.Elems, value, t.Pos)
	}
	return in.NewExc("SyntaxError", "cannot assign to %T", target)
}

func (in *Interp) unpack(fr *frame, targets []pylang.Expr, value Value, pos pylang.Pos) *PyErr {
	elems, err := in.iterate(value, pos)
	if err != nil {
		return err
	}
	if len(elems) != len(targets) {
		return in.NewExc("ValueError", "cannot unpack %d values into %d targets", len(elems), len(targets))
	}
	for i, t := range targets {
		if err := in.assign(fr, t, elems[i]); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) deleteTarget(fr *frame, target pylang.Expr) *PyErr {
	switch t := target.(type) {
	case *pylang.NameExpr:
		if fr.env != nil {
			if _, ok := fr.env.vars[t.Name]; ok {
				fr.env.del(t.Name)
				return nil
			}
		}
		if fr.globals.Delete(t.Name) {
			in.Alloc.Free(64)
			return nil
		}
		return in.NewExc("NameError", "name '%s' is not defined", t.Name)
	case *pylang.AttrExpr:
		obj, err := in.eval(fr, t.Value)
		if err != nil {
			return err
		}
		switch o := obj.(type) {
		case *ModuleV:
			if !o.Dict.Delete(t.Attr) {
				return in.NewExc("AttributeError", "module '%s' has no attribute '%s'", o.Name, t.Attr)
			}
			in.notePoisonModule(o.Name)
			return nil
		case *InstanceV:
			if !o.Dict.Delete(t.Attr) {
				return in.NewExc("AttributeError", "'%s' object has no attribute '%s'", o.Class.Name, t.Attr)
			}
			return nil
		case *ClassV:
			if !o.Dict.Delete(t.Attr) {
				return in.NewExc("AttributeError", "type '%s' has no attribute '%s'", o.Name, t.Attr)
			}
			return nil
		}
		return in.NewExc("TypeError", "cannot delete attribute of %s", obj.TypeName())
	case *pylang.IndexExpr:
		obj, err := in.eval(fr, t.Value)
		if err != nil {
			return err
		}
		idx, err := in.eval(fr, t.Index)
		if err != nil {
			return err
		}
		if d, ok := obj.(*DictV); ok {
			if !d.Delete(idx) {
				return in.NewExc("KeyError", "%s", Repr(idx))
			}
			return nil
		}
		return in.NewExc("TypeError", "cannot delete item of %s", obj.TypeName())
	}
	return in.NewExc("SyntaxError", "cannot delete %T", target)
}

// loopElems returns a for loop's element count and element accessor.
// Ranges and strings are read lazily, so `for i in range(2_000_000_000)`
// spends fuel on each iteration instead of first asking Go for a 32 GB
// slice; every other iterable is snapshotted by iterate. Either way the loop
// sees the same elements in the same order.
func (in *Interp) loopElems(v Value, pos pylang.Pos) (int64, func(int64) Value, *PyErr) {
	switch t := v.(type) {
	case *RangeV:
		start, step := t.Start, t.Step
		return t.Len(), func(i int64) Value { return IntV(start + i*step) }, nil
	case StrV:
		runes := []rune(string(t))
		return int64(len(runes)), func(i int64) Value { return StrV(string(runes[i])) }, nil
	}
	elems, err := in.iterate(v, pos)
	if err != nil {
		return 0, nil, err
	}
	return int64(len(elems)), func(i int64) Value { return elems[i] }, nil
}

// iterate materializes an iterable into a slice.
func (in *Interp) iterate(v Value, pos pylang.Pos) ([]Value, *PyErr) {
	switch t := v.(type) {
	case *ListV:
		out := make([]Value, len(t.Elems))
		copy(out, t.Elems)
		return out, nil
	case *TupleV:
		return t.Elems, nil
	case StrV:
		out := make([]Value, 0, len(t))
		for _, r := range string(t) {
			out = append(out, StrV(string(r)))
		}
		return out, nil
	case *DictV:
		items := t.Items()
		out := make([]Value, len(items))
		for i, kv := range items {
			out[i] = kv[0]
		}
		return out, nil
	case *RangeV:
		return t.materialize(), nil
	}
	return nil, in.NewExc("TypeError", "'%s' object is not iterable", v.TypeName())
}

// RangeV is a lazy integer range.
type RangeV struct {
	Start, Stop, Step int64
}

func (*RangeV) TypeName() string { return "range" }

// Len returns the number of elements in the range.
func (r *RangeV) Len() int64 {
	if r.Step > 0 {
		if r.Stop <= r.Start {
			return 0
		}
		return (r.Stop - r.Start + r.Step - 1) / r.Step
	}
	if r.Stop >= r.Start {
		return 0
	}
	return (r.Start - r.Stop - r.Step - 1) / (-r.Step)
}

func (r *RangeV) materialize() []Value {
	n := r.Len()
	out := make([]Value, 0, n)
	for i := int64(0); i < n; i++ {
		out = append(out, IntV(r.Start+i*r.Step))
	}
	return out
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

func (in *Interp) eval(fr *frame, e pylang.Expr) (Value, *PyErr) {
	switch v := e.(type) {
	case *pylang.NameExpr:
		return in.lookup(fr, v.Name, v.Pos)
	case *pylang.IntLit:
		return IntV(v.Value), nil
	case *pylang.FloatLit:
		return FloatV(v.Value), nil
	case *pylang.StringLit:
		return StrV(v.Value), nil
	case *pylang.BoolLit:
		return BoolV(v.Value), nil
	case *pylang.NoneLit:
		return None, nil
	case *pylang.AttrExpr:
		obj, err := in.eval(fr, v.Value)
		if err != nil {
			return nil, err
		}
		return in.getAttr(obj, v.Attr, v.Pos)
	case *pylang.IndexExpr:
		obj, err := in.eval(fr, v.Value)
		if err != nil {
			return nil, err
		}
		if v.Slice {
			return in.evalSlice(fr, obj, v)
		}
		idx, err := in.eval(fr, v.Index)
		if err != nil {
			return nil, err
		}
		return in.getItem(obj, idx, v.Pos)
	case *pylang.CallExpr:
		return in.evalCall(fr, v)
	case *pylang.BinOp:
		left, err := in.eval(fr, v.Left)
		if err != nil {
			return nil, err
		}
		right, err := in.eval(fr, v.Right)
		if err != nil {
			return nil, err
		}
		return in.binop(v.Op, left, right, v.Pos)
	case *pylang.BoolOp:
		var last Value = None
		for i, operand := range v.Values {
			val, err := in.eval(fr, operand)
			if err != nil {
				return nil, err
			}
			last = val
			if v.Op == pylang.KwAnd && !Truth(val) {
				return val, nil
			}
			if v.Op == pylang.KwOr && Truth(val) {
				return val, nil
			}
			_ = i
		}
		return last, nil
	case *pylang.UnaryOp:
		operand, err := in.eval(fr, v.Operand)
		if err != nil {
			return nil, err
		}
		return in.unary(v.Op, operand, v.Pos)
	case *pylang.Compare:
		return in.compare(fr, v)
	case *pylang.ListExpr:
		elems := make([]Value, len(v.Elems))
		for i, el := range v.Elems {
			val, err := in.eval(fr, el)
			if err != nil {
				return nil, err
			}
			elems[i] = val
		}
		return &ListV{Elems: elems}, nil
	case *pylang.TupleExpr:
		elems := make([]Value, len(v.Elems))
		for i, el := range v.Elems {
			val, err := in.eval(fr, el)
			if err != nil {
				return nil, err
			}
			elems[i] = val
		}
		return &TupleV{Elems: elems}, nil
	case *pylang.DictExpr:
		d := NewDict()
		for _, it := range v.Items {
			key, err := in.eval(fr, it.Key)
			if err != nil {
				return nil, err
			}
			val, err := in.eval(fr, it.Value)
			if err != nil {
				return nil, err
			}
			if !d.Set(key, val) {
				return nil, in.NewExc("TypeError", "unhashable type: '%s'", key.TypeName())
			}
		}
		return d, nil
	case *pylang.CondExpr:
		cond, err := in.eval(fr, v.Cond)
		if err != nil {
			return nil, err
		}
		if Truth(cond) {
			return in.eval(fr, v.Body)
		}
		return in.eval(fr, v.OrElse)
	case *pylang.LambdaExpr:
		defaults, derr := in.evalDefaults(fr, v.Params)
		if derr != nil {
			return nil, derr
		}
		fn := &FuncV{Name: "<lambda>", Params: v.Params, Expr: v.Body,
			Globals: fr.globals, Module: fr.module, Env: fr.env,
			Defaults: defaults}
		in.Alloc.Alloc(SizeOf(fn))
		return fn, nil
	}
	return nil, in.NewExc("RuntimeError", "unknown expression %T", e)
}

func (in *Interp) lookup(fr *frame, name string, pos pylang.Pos) (Value, *PyErr) {
	if fr.env != nil && (fr.env.globalNames == nil || !fr.env.globalNames[name]) {
		if v, ok := fr.env.lookup(name); ok {
			return v, nil
		}
	}
	if v, ok := fr.globals.Get(name); ok {
		return v, nil
	}
	if v, ok := in.builtins.Get(name); ok {
		return v, nil
	}
	if c, ok := in.excClasses[name]; ok {
		return c, nil
	}
	return nil, &PyErr{Value: in.NewExc("NameError", "name '%s' is not defined", name).Value, Pos: pos, Where: fr.module}
}

func (in *Interp) evalCall(fr *frame, v *pylang.CallExpr) (Value, *PyErr) {
	fn, err := in.eval(fr, v.Func)
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(v.Args))
	for i, a := range v.Args {
		val, err := in.eval(fr, a)
		if err != nil {
			return nil, err
		}
		args[i] = val
	}
	var kwargs map[string]Value
	if len(v.Keywords) > 0 {
		kwargs = make(map[string]Value, len(v.Keywords))
		for _, kw := range v.Keywords {
			val, err := in.eval(fr, kw.Value)
			if err != nil {
				return nil, err
			}
			kwargs[kw.Name] = val
		}
	}
	return in.call(fn, args, kwargs, v.Pos)
}

// call dispatches a call on any callable value.
func (in *Interp) call(fn Value, args []Value, kwargs map[string]Value, pos pylang.Pos) (Value, *PyErr) {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > MaxDepth {
		return nil, in.NewExc("RecursionError", "maximum recursion depth exceeded")
	}
	switch f := fn.(type) {
	case *BuiltinV:
		return f.Fn(in, args, kwargs)
	case *FuncV:
		return in.callFunc(f, args, kwargs, pos)
	case *BoundMethodV:
		newArgs := make([]Value, 0, len(args)+1)
		newArgs = append(newArgs, f.Recv)
		newArgs = append(newArgs, args...)
		return in.callFunc(f.Fn, newArgs, kwargs, pos)
	case *ClassV:
		return in.instantiate(f, args, kwargs, pos)
	case *InstanceV:
		if callV, ok := in.classLookup(f.Class, "__call__"); ok {
			if callFn, ok := callV.(*FuncV); ok {
				newArgs := make([]Value, 0, len(args)+1)
				newArgs = append(newArgs, f)
				newArgs = append(newArgs, args...)
				return in.callFunc(callFn, newArgs, kwargs, pos)
			}
		}
	}
	return nil, in.NewExc("TypeError", "'%s' object is not callable", fn.TypeName())
}

func (in *Interp) callFunc(f *FuncV, args []Value, kwargs map[string]Value, pos pylang.Pos) (Value, *PyErr) {
	env := NewEnv(f.Env)
	// Bind positional parameters.
	if len(args) > len(f.Params) {
		return nil, in.NewExc("TypeError", "%s() takes %d arguments but %d were given",
			f.Name, len(f.Params), len(args))
	}
	bound := make(map[string]bool, len(f.Params))
	for i, a := range args {
		env.vars[f.Params[i].Name] = a
		bound[f.Params[i].Name] = true
	}
	// Keyword arguments, in sorted order: with two or more invalid keywords
	// the raised error would otherwise depend on Go map iteration order.
	for _, name := range sortedKwargKeys(kwargs) {
		val := kwargs[name]
		found := false
		for _, p := range f.Params {
			if p.Name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, in.NewExc("TypeError", "%s() got an unexpected keyword argument '%s'", f.Name, name)
		}
		if bound[name] {
			return nil, in.NewExc("TypeError", "%s() got multiple values for argument '%s'", f.Name, name)
		}
		env.vars[name] = val
		bound[name] = true
	}
	// Defaults (evaluated once at definition time, per CPython).
	fr := &frame{globals: f.Globals, env: env, module: f.Module}
	for i, p := range f.Params {
		if bound[p.Name] {
			continue
		}
		if i >= len(f.Defaults) || f.Defaults[i] == nil {
			return nil, in.NewExc("TypeError", "%s() missing required argument: '%s'", f.Name, p.Name)
		}
		env.vars[p.Name] = f.Defaults[i]
	}
	if f.Cost > 0 {
		in.Clock.Advance(time.Duration(f.Cost))
	}
	if f.Expr != nil { // lambda
		return in.eval(fr, f.Expr)
	}
	c, err := in.execStmts(fr, f.Body)
	if err != nil {
		return nil, err
	}
	if c.kind == ctrlReturn {
		return c.value, nil
	}
	return None, nil
}

func (in *Interp) instantiate(c *ClassV, args []Value, kwargs map[string]Value, pos pylang.Pos) (Value, *PyErr) {
	inst := &InstanceV{Class: c, Dict: NewNamespace()}
	in.Alloc.Alloc(56)
	if c.Exception {
		inst.Dict.Set("args", &TupleV{Elems: args})
		// A user-defined __init__ may still run below.
	}
	if initV, ok := in.classLookup(c, "__init__"); ok {
		initFn, ok := initV.(*FuncV)
		if !ok {
			return nil, in.NewExc("TypeError", "__init__ must be a function")
		}
		newArgs := make([]Value, 0, len(args)+1)
		newArgs = append(newArgs, inst)
		newArgs = append(newArgs, args...)
		if _, err := in.callFunc(initFn, newArgs, kwargs, pos); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

func (in *Interp) classLookup(c *ClassV, name string) (Value, bool) {
	for k := c; k != nil; k = k.Base {
		if v, ok := k.Dict.Get(name); ok {
			return v, true
		}
	}
	return nil, false
}

// getAttr implements attribute access across all object kinds.
func (in *Interp) getAttr(obj Value, name string, pos pylang.Pos) (Value, *PyErr) {
	switch o := obj.(type) {
	case *ModuleV:
		if v, ok := o.Dict.Get(name); ok {
			return v, nil
		}
		// Accessing a not-yet-imported submodule of a package does not
		// auto-import in Python; it raises AttributeError. (λ-trim's
		// fallback relies on exactly this error surfacing.)
		return nil, &PyErr{Value: in.NewExc("AttributeError",
			"module '%s' has no attribute '%s'", o.Name, name).Value, Pos: pos}
	case *InstanceV:
		if v, ok := o.Dict.Get(name); ok {
			return v, nil
		}
		if v, ok := in.classLookup(o.Class, name); ok {
			if fn, isFn := v.(*FuncV); isFn {
				return &BoundMethodV{Recv: o, Fn: fn}, nil
			}
			return v, nil
		}
		return nil, &PyErr{Value: in.NewExc("AttributeError",
			"'%s' object has no attribute '%s'", o.Class.Name, name).Value, Pos: pos}
	case *ClassV:
		if name == "__name__" {
			return StrV(o.Name), nil
		}
		if v, ok := in.classLookup(o, name); ok {
			return v, nil
		}
		return nil, &PyErr{Value: in.NewExc("AttributeError",
			"type object '%s' has no attribute '%s'", o.Name, name).Value, Pos: pos}
	case StrV:
		if m, ok := strMethod(in, o, name); ok {
			return m, nil
		}
	case *ListV:
		if m, ok := listMethod(in, o, name); ok {
			return m, nil
		}
	case *DictV:
		if m, ok := dictMethod(in, o, name); ok {
			return m, nil
		}
	}
	return nil, &PyErr{Value: in.NewExc("AttributeError",
		"'%s' object has no attribute '%s'", obj.TypeName(), name).Value, Pos: pos}
}

func (in *Interp) setAttr(obj Value, name string, value Value, pos pylang.Pos) *PyErr {
	switch o := obj.(type) {
	case *ModuleV:
		in.notePoisonModule(o.Name)
		if o.Dict.Set(name, value) {
			in.Alloc.Alloc(64)
		}
		return nil
	case *InstanceV:
		if o.Dict.Set(name, value) {
			in.Alloc.Alloc(64)
		}
		return nil
	case *ClassV:
		// CPython forbids mutating built-in types; enforcing that here also
		// lets all interpreters share one set of builtin class objects.
		if o.Module == "builtins" {
			return in.NewExc("TypeError",
				"cannot set '%s' attribute of immutable type '%s'", name, o.Name)
		}
		o.Dict.Set(name, value)
		return nil
	}
	return in.NewExc("AttributeError", "cannot set attribute on '%s' object", obj.TypeName())
}

func (in *Interp) getItem(obj, idx Value, pos pylang.Pos) (Value, *PyErr) {
	switch o := obj.(type) {
	case *ListV:
		i, err := in.seqIndex(idx, len(o.Elems), pos)
		if err != nil {
			return nil, err
		}
		return o.Elems[i], nil
	case *TupleV:
		i, err := in.seqIndex(idx, len(o.Elems), pos)
		if err != nil {
			return nil, err
		}
		return o.Elems[i], nil
	case StrV:
		runes := []rune(string(o))
		i, err := in.seqIndex(idx, len(runes), pos)
		if err != nil {
			return nil, err
		}
		return StrV(string(runes[i])), nil
	case *DictV:
		v, ok := o.Get(idx)
		if !ok {
			return nil, in.NewExc("KeyError", "%s", Repr(idx))
		}
		return v, nil
	}
	return nil, in.NewExc("TypeError", "'%s' object is not subscriptable", obj.TypeName())
}

func (in *Interp) setItem(obj, idx, value Value, pos pylang.Pos) *PyErr {
	switch o := obj.(type) {
	case *ListV:
		i, err := in.seqIndex(idx, len(o.Elems), pos)
		if err != nil {
			return err
		}
		o.Elems[i] = value
		return nil
	case *DictV:
		if !o.Set(idx, value) {
			return in.NewExc("TypeError", "unhashable type: '%s'", idx.TypeName())
		}
		return nil
	}
	return in.NewExc("TypeError", "'%s' object does not support item assignment", obj.TypeName())
}

func (in *Interp) seqIndex(idx Value, n int, pos pylang.Pos) (int, *PyErr) {
	iv, ok := asInt(idx)
	if !ok {
		return 0, in.NewExc("TypeError", "indices must be integers, not %s", idx.TypeName())
	}
	i := int(iv)
	if i < 0 {
		i += n
	}
	if i < 0 || i >= n {
		return 0, in.NewExc("IndexError", "index out of range")
	}
	return i, nil
}

func (in *Interp) evalSlice(fr *frame, obj Value, v *pylang.IndexExpr) (Value, *PyErr) {
	length := 0
	switch o := obj.(type) {
	case *ListV:
		length = len(o.Elems)
	case *TupleV:
		length = len(o.Elems)
	case StrV:
		length = len(o)
	default:
		return nil, in.NewExc("TypeError", "'%s' object is not sliceable", obj.TypeName())
	}
	low, high := 0, length
	if v.Low != nil {
		lv, err := in.eval(fr, v.Low)
		if err != nil {
			return nil, err
		}
		iv, ok := asInt(lv)
		if !ok {
			return nil, in.NewExc("TypeError", "slice indices must be integers")
		}
		low = clampIndex(int(iv), length)
	}
	if v.High != nil {
		hv, err := in.eval(fr, v.High)
		if err != nil {
			return nil, err
		}
		iv, ok := asInt(hv)
		if !ok {
			return nil, in.NewExc("TypeError", "slice indices must be integers")
		}
		high = clampIndex(int(iv), length)
	}
	if high < low {
		high = low
	}
	switch o := obj.(type) {
	case *ListV:
		out := make([]Value, high-low)
		copy(out, o.Elems[low:high])
		return &ListV{Elems: out}, nil
	case *TupleV:
		out := make([]Value, high-low)
		copy(out, o.Elems[low:high])
		return &TupleV{Elems: out}, nil
	case StrV:
		return StrV(string(o)[low:high]), nil
	}
	return nil, in.NewExc("TypeError", "unreachable")
}

func clampIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

func asInt(v Value) (int64, bool) {
	switch t := v.(type) {
	case IntV:
		return int64(t), true
	case BoolV:
		return boolToInt(bool(t)), true
	}
	return 0, false
}

func asFloat(v Value) (float64, bool) {
	switch t := v.(type) {
	case IntV:
		return float64(t), true
	case FloatV:
		return float64(t), true
	case BoolV:
		return float64(boolToInt(bool(t))), true
	}
	return 0, false
}

// binop implements arithmetic and sequence operators.
func (in *Interp) binop(op pylang.Kind, a, b Value, pos pylang.Pos) (Value, *PyErr) {
	// String concatenation and repetition.
	if op == pylang.Plus {
		if sa, ok := a.(StrV); ok {
			sb, ok := b.(StrV)
			if !ok {
				return nil, in.NewExc("TypeError", "can only concatenate str to str, not %s", b.TypeName())
			}
			return sa + sb, nil
		}
		if la, ok := a.(*ListV); ok {
			lb, ok := b.(*ListV)
			if !ok {
				return nil, in.NewExc("TypeError", "can only concatenate list to list")
			}
			out := make([]Value, 0, len(la.Elems)+len(lb.Elems))
			out = append(out, la.Elems...)
			out = append(out, lb.Elems...)
			return &ListV{Elems: out}, nil
		}
		if ta, ok := a.(*TupleV); ok {
			tb, ok := b.(*TupleV)
			if !ok {
				return nil, in.NewExc("TypeError", "can only concatenate tuple to tuple")
			}
			out := make([]Value, 0, len(ta.Elems)+len(tb.Elems))
			out = append(out, ta.Elems...)
			out = append(out, tb.Elems...)
			return &TupleV{Elems: out}, nil
		}
	}
	if op == pylang.Star {
		if sa, ok := a.(StrV); ok {
			if n, ok := asInt(b); ok {
				if n < 0 {
					n = 0
				}
				return StrV(strings.Repeat(string(sa), int(n))), nil
			}
		}
		if n, ok := asInt(a); ok {
			if sb, ok := b.(StrV); ok {
				if n < 0 {
					n = 0
				}
				return StrV(strings.Repeat(string(sb), int(n))), nil
			}
		}
		if la, ok := a.(*ListV); ok {
			if n, ok := asInt(b); ok {
				var out []Value
				for i := int64(0); i < n; i++ {
					out = append(out, la.Elems...)
				}
				return &ListV{Elems: out}, nil
			}
		}
	}
	// String formatting with %.
	if op == pylang.Percent {
		if sa, ok := a.(StrV); ok {
			return in.formatPercent(sa, b)
		}
	}
	// Numeric paths.
	ai, aIsInt := a.(IntV)
	bi, bIsInt := b.(IntV)
	if ab, ok := a.(BoolV); ok {
		ai, aIsInt = IntV(boolToInt(bool(ab))), true
	}
	if bb, ok := b.(BoolV); ok {
		bi, bIsInt = IntV(boolToInt(bool(bb))), true
	}
	if aIsInt && bIsInt {
		switch op {
		case pylang.Plus:
			return ai + bi, nil
		case pylang.Minus:
			return ai - bi, nil
		case pylang.Star:
			return ai * bi, nil
		case pylang.Slash:
			if bi == 0 {
				return nil, in.NewExc("ZeroDivisionError", "division by zero")
			}
			return FloatV(float64(ai) / float64(bi)), nil
		case pylang.DoubleSlash:
			if bi == 0 {
				return nil, in.NewExc("ZeroDivisionError", "integer division or modulo by zero")
			}
			return IntV(floorDiv(int64(ai), int64(bi))), nil
		case pylang.Percent:
			if bi == 0 {
				return nil, in.NewExc("ZeroDivisionError", "integer division or modulo by zero")
			}
			return IntV(pyMod(int64(ai), int64(bi))), nil
		case pylang.DoubleStar:
			if bi >= 0 {
				return IntV(intPow(int64(ai), int64(bi))), nil
			}
			return FloatV(math.Pow(float64(ai), float64(bi))), nil
		}
	}
	af, aok := asFloat(a)
	bf, bok := asFloat(b)
	if aok && bok {
		switch op {
		case pylang.Plus:
			return FloatV(af + bf), nil
		case pylang.Minus:
			return FloatV(af - bf), nil
		case pylang.Star:
			return FloatV(af * bf), nil
		case pylang.Slash:
			if bf == 0 {
				return nil, in.NewExc("ZeroDivisionError", "float division by zero")
			}
			return FloatV(af / bf), nil
		case pylang.DoubleSlash:
			if bf == 0 {
				return nil, in.NewExc("ZeroDivisionError", "float floor division by zero")
			}
			return FloatV(math.Floor(af / bf)), nil
		case pylang.Percent:
			if bf == 0 {
				return nil, in.NewExc("ZeroDivisionError", "float modulo")
			}
			m := math.Mod(af, bf)
			if m != 0 && (m < 0) != (bf < 0) {
				m += bf
			}
			return FloatV(m), nil
		case pylang.DoubleStar:
			return FloatV(math.Pow(af, bf)), nil
		}
	}
	return nil, in.NewExc("TypeError", "unsupported operand type(s) for %s: '%s' and '%s'",
		op, a.TypeName(), b.TypeName())
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func pyMod(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

func intPow(base, exp int64) int64 {
	result := int64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

// formatPercent implements a practical subset of %-formatting: %s %d %f
// %.Nf %r %%.
func (in *Interp) formatPercent(format StrV, arg Value) (Value, *PyErr) {
	var args []Value
	if t, ok := arg.(*TupleV); ok {
		args = t.Elems
	} else {
		args = []Value{arg}
	}
	var sb strings.Builder
	src := string(format)
	ai := 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		if i+1 < len(src) && src[i+1] == '%' {
			sb.WriteByte('%')
			i++
			continue
		}
		// Parse an optional precision like %.3f.
		j := i + 1
		prec := -1
		if j < len(src) && src[j] == '.' {
			j++
			p := 0
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				p = p*10 + int(src[j]-'0')
				j++
			}
			prec = p
		}
		if j >= len(src) {
			return nil, in.NewExc("ValueError", "incomplete format")
		}
		if ai >= len(args) {
			return nil, in.NewExc("TypeError", "not enough arguments for format string")
		}
		a := args[ai]
		ai++
		switch src[j] {
		case 's':
			sb.WriteString(Str(a))
		case 'r':
			sb.WriteString(Repr(a))
		case 'd':
			iv, ok := asInt(a)
			if !ok {
				if f, fok := a.(FloatV); fok {
					iv = int64(f)
				} else {
					return nil, in.NewExc("TypeError", "%%d format: a number is required")
				}
			}
			fmt.Fprintf(&sb, "%d", iv)
		case 'f':
			fv, ok := asFloat(a)
			if !ok {
				return nil, in.NewExc("TypeError", "float argument required")
			}
			if prec < 0 {
				prec = 6
			}
			fmt.Fprintf(&sb, "%.*f", prec, fv)
		default:
			return nil, in.NewExc("ValueError", "unsupported format character %q", src[j])
		}
		i = j
	}
	return StrV(sb.String()), nil
}

func (in *Interp) unary(op pylang.Kind, v Value, pos pylang.Pos) (Value, *PyErr) {
	switch op {
	case pylang.KwNot:
		return BoolV(!Truth(v)), nil
	case pylang.Minus:
		switch t := v.(type) {
		case IntV:
			return -t, nil
		case FloatV:
			return -t, nil
		case BoolV:
			return IntV(-boolToInt(bool(t))), nil
		}
		return nil, in.NewExc("TypeError", "bad operand type for unary -: '%s'", v.TypeName())
	case pylang.Plus:
		switch v.(type) {
		case IntV, FloatV:
			return v, nil
		}
		return nil, in.NewExc("TypeError", "bad operand type for unary +: '%s'", v.TypeName())
	}
	return nil, in.NewExc("RuntimeError", "unknown unary op %s", op)
}

func (in *Interp) compare(fr *frame, v *pylang.Compare) (Value, *PyErr) {
	left, err := in.eval(fr, v.Left)
	if err != nil {
		return nil, err
	}
	for i, op := range v.Ops {
		right, err := in.eval(fr, v.Comparators[i])
		if err != nil {
			return nil, err
		}
		ok, perr := in.compareOne(op, left, right, v.Pos)
		if perr != nil {
			return nil, perr
		}
		if !ok {
			return BoolV(false), nil
		}
		left = right
	}
	return BoolV(true), nil
}

func (in *Interp) compareOne(op pylang.Kind, a, b Value, pos pylang.Pos) (bool, *PyErr) {
	switch op {
	case pylang.Eq:
		return Equal(a, b), nil
	case pylang.Ne:
		return !Equal(a, b), nil
	case pylang.KwIs:
		return identical(a, b), nil
	case pylang.KwIsNot:
		return !identical(a, b), nil
	case pylang.KwIn, pylang.KwNotIn:
		found, err := in.contains(b, a, pos)
		if err != nil {
			return false, err
		}
		if op == pylang.KwNotIn {
			return !found, nil
		}
		return found, nil
	}
	// Ordering.
	if af, aok := asFloat(a); aok {
		if bf, bok := asFloat(b); bok {
			switch op {
			case pylang.Lt:
				return af < bf, nil
			case pylang.Gt:
				return af > bf, nil
			case pylang.Le:
				return af <= bf, nil
			case pylang.Ge:
				return af >= bf, nil
			}
		}
	}
	if as, aok := a.(StrV); aok {
		if bs, bok := b.(StrV); bok {
			switch op {
			case pylang.Lt:
				return as < bs, nil
			case pylang.Gt:
				return as > bs, nil
			case pylang.Le:
				return as <= bs, nil
			case pylang.Ge:
				return as >= bs, nil
			}
		}
	}
	if al, aok := a.(*ListV); aok {
		if bl, bok := b.(*ListV); bok {
			return in.compareSeq(op, al.Elems, bl.Elems, pos)
		}
	}
	if at, aok := a.(*TupleV); aok {
		if bt, bok := b.(*TupleV); bok {
			return in.compareSeq(op, at.Elems, bt.Elems, pos)
		}
	}
	return false, in.NewExc("TypeError", "'%s' not supported between instances of '%s' and '%s'",
		op, a.TypeName(), b.TypeName())
}

func (in *Interp) compareSeq(op pylang.Kind, a, b []Value, pos pylang.Pos) (bool, *PyErr) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if Equal(a[i], b[i]) {
			continue
		}
		return in.compareOne(op, a[i], b[i], pos)
	}
	switch op {
	case pylang.Lt:
		return len(a) < len(b), nil
	case pylang.Gt:
		return len(a) > len(b), nil
	case pylang.Le:
		return len(a) <= len(b), nil
	case pylang.Ge:
		return len(a) >= len(b), nil
	}
	return false, nil
}

func identical(a, b Value) bool {
	switch a.(type) {
	case NoneV:
		_, ok := b.(NoneV)
		return ok
	case BoolV, IntV, FloatV, StrV:
		return Equal(a, b) && a.TypeName() == b.TypeName()
	}
	return a == b
}

func (in *Interp) contains(container, item Value, pos pylang.Pos) (bool, *PyErr) {
	switch c := container.(type) {
	case *ListV:
		for _, e := range c.Elems {
			if Equal(e, item) {
				return true, nil
			}
		}
		return false, nil
	case *TupleV:
		for _, e := range c.Elems {
			if Equal(e, item) {
				return true, nil
			}
		}
		return false, nil
	case *DictV:
		_, ok := c.Get(item)
		return ok, nil
	case StrV:
		s, ok := item.(StrV)
		if !ok {
			return false, in.NewExc("TypeError", "'in <string>' requires string as left operand")
		}
		return strings.Contains(string(c), string(s)), nil
	case *RangeV:
		iv, ok := asInt(item)
		if !ok {
			return false, nil
		}
		if c.Step > 0 {
			return iv >= c.Start && iv < c.Stop && (iv-c.Start)%c.Step == 0, nil
		}
		return iv <= c.Start && iv > c.Stop && (c.Start-iv)%(-c.Step) == 0, nil
	}
	return false, in.NewExc("TypeError", "argument of type '%s' is not iterable", container.TypeName())
}
