package pyruntime

import (
	"fmt"
	"sync"

	"repro/internal/pylang"
)

// PyErr is a raised Python exception propagating through the interpreter.
// It is distinct from Go errors: a PyErr can be caught by except clauses,
// while Go errors from the embedding API are always fatal.
type PyErr struct {
	Value *InstanceV // the exception instance
	Pos   pylang.Pos
	Where string // module or function where it was raised
	// Cause is the implicitly-chained predecessor (CPython's __context__):
	// the exception that was being handled when this one was raised. The
	// chain lets embedders recognize a failure's root cause even when
	// application code catches and re-wraps it (e.g. the fallback wrapper
	// matching an AttributeError buried under a derived RuntimeError).
	Cause *PyErr
}

// Error implements the error interface with a Python-style rendering.
func (e *PyErr) Error() string {
	msg := e.Message()
	if msg == "" {
		return e.Value.Class.Name
	}
	return e.Value.Class.Name + ": " + msg
}

// ClassName returns the exception class name ("AttributeError", ...).
func (e *PyErr) ClassName() string { return e.Value.Class.Name }

// Message returns the first exception argument rendered with str().
func (e *PyErr) Message() string {
	args, ok := e.Value.Dict.Get("args")
	if !ok {
		return ""
	}
	tup, ok := args.(*TupleV)
	if !ok || len(tup.Elems) == 0 {
		return ""
	}
	return Str(tup.Elems[0])
}

// Matches reports whether the exception is an instance of class c
// (or a subclass of it).
func (e *PyErr) Matches(c *ClassV) bool { return e.Value.Class.IsSubclassOf(c) }

// HasClass reports whether the exception — or any exception on its cause
// chain — is an instance of the named class. Chains are produced by
// chainCause and are acyclic by construction; the walk is bounded anyway
// as a guard against malformed chains.
func (e *PyErr) HasClass(name string) bool {
	for depth := 0; e != nil && depth < 64; depth++ {
		if e.ClassName() == name {
			return true
		}
		e = e.Cause
	}
	return false
}

// chainCause records ctx as the cause of err (implicit exception chaining:
// err was raised while ctx was being handled). The cause lands on the
// innermost unset slot of err's existing chain; self-links are refused —
// by exception instance, since `raise e` re-wraps the same instance in a
// fresh PyErr — so re-raising the active exception never forms a cycle.
func chainCause(err, ctx *PyErr) {
	if err == nil || ctx == nil || err.Value == ctx.Value {
		return
	}
	e := err
	for depth := 0; e.Cause != nil && depth < 64; depth++ {
		if e.Cause.Value == ctx.Value {
			return
		}
		e = e.Cause
	}
	if e.Value != ctx.Value {
		e.Cause = ctx
	}
}

// builtin exception hierarchy names; each maps to its base class name.
// "BaseException" is the root.
var exceptionTree = [][2]string{
	{"BaseException", ""},
	{"Exception", "BaseException"},
	{"ArithmeticError", "Exception"},
	{"ZeroDivisionError", "ArithmeticError"},
	{"OverflowError", "ArithmeticError"},
	{"AttributeError", "Exception"},
	{"LookupError", "Exception"},
	{"IndexError", "LookupError"},
	{"KeyError", "LookupError"},
	{"NameError", "Exception"},
	{"TypeError", "Exception"},
	{"ValueError", "Exception"},
	{"ImportError", "Exception"},
	{"ModuleNotFoundError", "ImportError"},
	{"RuntimeError", "Exception"},
	{"NotImplementedError", "RuntimeError"},
	{"RecursionError", "RuntimeError"},
	{"AssertionError", "Exception"},
	{"StopIteration", "Exception"},
	{"OSError", "Exception"},
	{"FileNotFoundError", "OSError"},
	{"TimeoutError", "OSError"},
	{"ConnectionError", "OSError"},
	{"MemoryError", "Exception"},
	{"KeyboardInterrupt", "BaseException"},
}

// buildExceptionClasses returns the builtin exception class objects. They
// are built once and shared by every interpreter: builtin classes are
// immutable (setAttr rejects them, as CPython does), so a fresh set per
// oracle-run interpreter would only burn allocations.
var (
	excClassesOnce   sync.Once
	excClassesShared map[string]*ClassV
)

func buildExceptionClasses() map[string]*ClassV {
	excClassesOnce.Do(func() { excClassesShared = buildExceptionClassSet() })
	return excClassesShared
}

func buildExceptionClassSet() map[string]*ClassV {
	classes := make(map[string]*ClassV, len(exceptionTree))
	for _, pair := range exceptionTree {
		name, baseName := pair[0], pair[1]
		var base *ClassV
		if baseName != "" {
			base = classes[baseName]
		}
		classes[name] = &ClassV{
			// An empty Namespace (nil map, lazily allocated on first Set):
			// exception dicts almost never gain attributes, and a fresh
			// class set is built for every oracle-run interpreter.
			Name: name, Base: base, Dict: &Namespace{},
			Module: "builtins", Exception: true,
		}
	}
	return classes
}

// NewExc constructs an exception instance of the named builtin class.
func (in *Interp) NewExc(class string, format string, args ...any) *PyErr {
	c, ok := in.excClasses[class]
	if !ok {
		c = in.excClasses["RuntimeError"]
	}
	msg := fmt.Sprintf(format, args...)
	inst := &InstanceV{Class: c, Dict: NewNamespace()}
	inst.Dict.Set("args", &TupleV{Elems: []Value{StrV(msg)}})
	return &PyErr{Value: inst}
}
