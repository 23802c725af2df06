// Package pyruntime implements the object model, evaluator, builtins and
// import machinery for the Python subset. It is the substrate on which
// λ-trim's analyzer, profiler and debloater operate: module execution builds
// namespace dictionaries statement by statement, imports are cached in a
// sys.modules-style table, and import hooks let the profiler observe the
// marginal time and memory of every module — exactly the mechanisms the
// paper's pipeline patches in CPython.
package pyruntime

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pylang"
)

// Value is any runtime value.
type Value interface {
	// TypeName returns the Python-visible type name ("int", "module", ...).
	TypeName() string
}

// ---------------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------------

// NoneV is the None singleton's type.
type NoneV struct{}

// None is the sole None value.
var None = NoneV{}

func (NoneV) TypeName() string { return "NoneType" }

// BoolV is a boolean.
type BoolV bool

func (BoolV) TypeName() string { return "bool" }

// IntV is an integer.
type IntV int64

func (IntV) TypeName() string { return "int" }

// FloatV is a float.
type FloatV float64

func (FloatV) TypeName() string { return "float" }

// StrV is a string.
type StrV string

func (StrV) TypeName() string { return "str" }

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

// ListV is a mutable list.
type ListV struct {
	Elems []Value
}

func (*ListV) TypeName() string { return "list" }

// TupleV is an immutable sequence.
type TupleV struct {
	Elems []Value
}

func (*TupleV) TypeName() string { return "tuple" }

type dictEntry struct {
	key Value
	val Value
}

// DictV is an insertion-ordered dictionary, matching Python 3.7+ semantics
// so printed output is deterministic.
type DictV struct {
	order   []string
	entries map[string]dictEntry
}

// NewDict returns an empty dict.
func NewDict() *DictV {
	return &DictV{entries: make(map[string]dictEntry)}
}

func (*DictV) TypeName() string { return "dict" }

// hashKey produces the internal key for hashable values.
func hashKey(v Value) (string, bool) {
	switch t := v.(type) {
	case NoneV:
		return "N", true
	case BoolV:
		if t {
			return "bT", true
		}
		return "bF", true
	case IntV:
		return "i" + strconv.FormatInt(int64(t), 10), true
	case FloatV:
		// int/float equality: 1 and 1.0 hash the same, as in Python.
		if float64(int64(t)) == float64(t) {
			return "i" + strconv.FormatInt(int64(t), 10), true
		}
		return "f" + strconv.FormatFloat(float64(t), 'g', -1, 64), true
	case StrV:
		return "s" + string(t), true
	case *TupleV:
		var sb strings.Builder
		sb.WriteString("t(")
		for _, e := range t.Elems {
			k, ok := hashKey(e)
			if !ok {
				return "", false
			}
			sb.WriteString(k)
			sb.WriteByte(',')
		}
		sb.WriteByte(')')
		return sb.String(), true
	}
	return "", false
}

// Get looks up key.
func (d *DictV) Get(key Value) (Value, bool) {
	h, ok := hashKey(key)
	if !ok {
		return nil, false
	}
	e, ok := d.entries[h]
	if !ok {
		return nil, false
	}
	return e.val, true
}

// Set inserts or replaces key.
func (d *DictV) Set(key, val Value) bool {
	h, ok := hashKey(key)
	if !ok {
		return false
	}
	if _, exists := d.entries[h]; !exists {
		d.order = append(d.order, h)
	}
	d.entries[h] = dictEntry{key: key, val: val}
	return true
}

// Delete removes key, reporting whether it was present.
func (d *DictV) Delete(key Value) bool {
	h, ok := hashKey(key)
	if !ok {
		return false
	}
	if _, exists := d.entries[h]; !exists {
		return false
	}
	delete(d.entries, h)
	for i, o := range d.order {
		if o == h {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	return true
}

// Len returns the number of entries.
func (d *DictV) Len() int { return len(d.entries) }

// Items returns key/value pairs in insertion order.
func (d *DictV) Items() [][2]Value {
	out := make([][2]Value, 0, len(d.order))
	for _, h := range d.order {
		e := d.entries[h]
		out = append(out, [2]Value{e.key, e.val})
	}
	return out
}

// SetStr is a convenience for string keys.
func (d *DictV) SetStr(key string, val Value) { d.Set(StrV(key), val) }

// GetStr is a convenience for string keys.
func (d *DictV) GetStr(key string) (Value, bool) { return d.Get(StrV(key)) }

// ---------------------------------------------------------------------------
// Callables, classes, modules
// ---------------------------------------------------------------------------

// FuncV is a user-defined function (or lambda) with its defining globals.
type FuncV struct {
	Name    string
	Params  []pylang.Param
	Body    []pylang.Stmt // nil for lambdas
	Expr    pylang.Expr   // lambda body
	Globals *Namespace    // module globals at definition site
	Module  string        // defining module, for diagnostics
	Env     *Env          // enclosing local env for closures (may be nil)
	Cost    int64         // extra virtual nanoseconds charged per call
	// Defaults holds parameter default values evaluated at definition
	// time (CPython semantics); nil entries mark required parameters.
	Defaults []Value
}

func (*FuncV) TypeName() string { return "function" }

// BuiltinV is a function implemented in Go.
type BuiltinV struct {
	Name string
	Fn   func(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr)
}

func (*BuiltinV) TypeName() string { return "builtin_function_or_method" }

// ClassV is a class object. A nil Base means the implicit root (object).
type ClassV struct {
	Name   string
	Base   *ClassV
	Dict   *Namespace
	Module string
	// Exception marks builtin exception classes so "except E" can match
	// raised values structurally.
	Exception bool
}

func (*ClassV) TypeName() string { return "type" }

// IsSubclassOf reports whether c is other or derives from it.
func (c *ClassV) IsSubclassOf(other *ClassV) bool {
	for k := c; k != nil; k = k.Base {
		if k == other {
			return true
		}
	}
	return false
}

// InstanceV is an instance of a user class (including exception instances).
type InstanceV struct {
	Class *ClassV
	Dict  *Namespace
}

func (i *InstanceV) TypeName() string { return i.Class.Name }

// BoundMethodV pairs a receiver with a function.
type BoundMethodV struct {
	Recv Value
	Fn   *FuncV
}

func (*BoundMethodV) TypeName() string { return "method" }

// ModuleV is an imported module: a namespace plus identity.
type ModuleV struct {
	Name string // dotted name
	Dict *Namespace
	File string // vfs path it was loaded from
}

func (*ModuleV) TypeName() string { return "module" }

// Namespace is an insertion-ordered string-keyed mapping used for module
// globals, class dicts and instance dicts. Order determines dir() output and
// keeps every experiment deterministic.
//
// A namespace installed by an import-snapshot replay is lazy: order names
// every recorded slot from the start, but m holds only the slots read or set
// since the replay, and a recorded slot's value is built from its snapshot
// node on its first Get (see snapshot.go).
type Namespace struct {
	order []string
	m     map[string]Value
	snap  *snapNS        // recorded slots; nil unless lazy
	si    *snapInstaller // the replay that installed snap
}

// NewNamespace returns an empty namespace.
func NewNamespace() *Namespace {
	return &Namespace{m: make(map[string]Value)}
}

// newNamespaceSize returns an empty namespace with room for n names, so a
// module body whose binds are known up front never grows its map.
func newNamespaceSize(n int) *Namespace {
	return &Namespace{order: make([]string, 0, n), m: make(map[string]Value, n)}
}

// Get looks up name.
func (ns *Namespace) Get(name string) (Value, bool) {
	if v, ok := ns.m[name]; ok {
		return v, true
	}
	if ns.snap == nil {
		return nil, false
	}
	return ns.materialize(name)
}

// Has reports whether name is bound, without materializing a lazy slot.
func (ns *Namespace) Has(name string) bool {
	if _, ok := ns.m[name]; ok {
		return true
	}
	return ns.snap != nil && ns.snap.has(name)
}

// Set binds name and reports whether the name is new, which callers use to
// charge a slot without a second lookup. The map is allocated lazily so
// namespaces that stay empty (most builtin exception class dicts) cost a
// single small allocation. On a lazy namespace, setting a slot not yet read
// shadows its recorded value; that name is not new.
func (ns *Namespace) Set(name string, v Value) bool {
	if ns.m == nil {
		ns.m = make(map[string]Value, 4)
	}
	n := len(ns.m)
	ns.m[name] = v
	if len(ns.m) == n || ns.snap != nil && ns.snap.has(name) {
		return false
	}
	ns.order = append(ns.order, name)
	return true
}

// Delete unbinds name, reporting whether it was bound. A lazy namespace is
// materialized whole first, so no recorded slot can reappear afterwards.
func (ns *Namespace) Delete(name string) bool {
	if ns.snap != nil {
		ns.materializeAll()
	}
	if _, ok := ns.m[name]; !ok {
		return false
	}
	delete(ns.m, name)
	for i, o := range ns.order {
		if o == name {
			ns.order = append(ns.order[:i], ns.order[i+1:]...)
			break
		}
	}
	return true
}

// Names returns bound names in insertion order.
func (ns *Namespace) Names() []string {
	out := make([]string, len(ns.order))
	copy(out, ns.order)
	return out
}

// SortedNames returns bound names sorted, for dir()-style listings.
func (ns *Namespace) SortedNames() []string {
	out := ns.Names()
	sort.Strings(out)
	return out
}

// Len returns the number of bindings.
func (ns *Namespace) Len() int { return len(ns.order) }

// Env is a local variable environment with a parent chain for closures.
type Env struct {
	vars   map[string]Value
	parent *Env
	// globalNames holds names declared global in this scope.
	globalNames map[string]bool
	// order records binding insertion order when track is set. Class bodies
	// enable it so the class dict is populated deterministically instead of
	// by Go map iteration (which randomized attribute order run to run).
	order []string
	track bool
}

// NewEnv returns a child environment of parent (parent may be nil).
func NewEnv(parent *Env) *Env {
	return &Env{vars: make(map[string]Value), parent: parent}
}

func (e *Env) lookup(name string) (Value, bool) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// set binds name in this scope, maintaining insertion order when tracked.
func (e *Env) set(name string, v Value) {
	if e.track {
		if _, ok := e.vars[name]; !ok {
			e.order = append(e.order, name)
		}
	}
	e.vars[name] = v
}

// del unbinds name in this scope, maintaining insertion order when tracked.
func (e *Env) del(name string) {
	delete(e.vars, name)
	if e.track {
		for i, o := range e.order {
			if o == name {
				e.order = append(e.order[:i], e.order[i+1:]...)
				break
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

// Str renders a value as str() would.
func Str(v Value) string {
	switch t := v.(type) {
	case StrV:
		return string(t)
	default:
		return Repr(v)
	}
}

// Repr renders a value as repr() would.
func Repr(v Value) string { return reprIn(v, nil) }

// strEscaper escapes a str's repr. A Replacer builds its lookup table on
// first use and is safe for concurrent use, so one serves every call.
var strEscaper = strings.NewReplacer("\\", "\\\\", "'", "\\'", "\n", "\\n", "\t", "\\t")

// reprIn renders v inside open, the containers being rendered around it. A
// container that holds itself renders as [...], (...) or {...}, as CPython
// prints it, instead of recursing until the Go stack runs out.
func reprIn(v Value, open []Value) string {
	for _, o := range open {
		if o == v {
			switch v.(type) {
			case *ListV:
				return "[...]"
			case *TupleV:
				return "(...)"
			case *DictV:
				return "{...}"
			}
		}
	}
	switch t := v.(type) {
	case NoneV:
		return "None"
	case BoolV:
		if t {
			return "True"
		}
		return "False"
	case IntV:
		return strconv.FormatInt(int64(t), 10)
	case FloatV:
		s := strconv.FormatFloat(float64(t), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "inf") && !strings.Contains(s, "nan") {
			s += ".0"
		}
		return s
	case StrV:
		return "'" + strEscaper.Replace(string(t)) + "'"
	case *ListV:
		open = append(open, t)
		parts := make([]string, len(t.Elems))
		for i, e := range t.Elems {
			parts[i] = reprIn(e, open)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *TupleV:
		open = append(open, t)
		parts := make([]string, len(t.Elems))
		for i, e := range t.Elems {
			parts[i] = reprIn(e, open)
		}
		if len(parts) == 1 {
			return "(" + parts[0] + ",)"
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case *DictV:
		open = append(open, t)
		var parts []string
		for _, kv := range t.Items() {
			parts = append(parts, reprIn(kv[0], open)+": "+reprIn(kv[1], open))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *FuncV:
		return "<function " + t.Name + ">"
	case *BuiltinV:
		return "<built-in function " + t.Name + ">"
	case *ClassV:
		return "<class '" + t.Name + "'>"
	case *InstanceV:
		// Exception instances print like Python: Type(args...).
		if t.Class.Exception {
			if args, ok := t.Dict.Get("args"); ok {
				if tup, ok := args.(*TupleV); ok && len(tup.Elems) == 1 {
					return t.Class.Name + "(" + reprIn(tup.Elems[0], open) + ")"
				} else if ok {
					return t.Class.Name + reprIn(tup, open)
				}
			}
		}
		return "<" + t.Class.Name + " object>"
	case *BoundMethodV:
		return "<bound method " + t.Fn.Name + ">"
	case *ModuleV:
		return "<module '" + t.Name + "'>"
	}
	return fmt.Sprintf("<%s>", v.TypeName())
}

// Truth evaluates Python truthiness.
func Truth(v Value) bool {
	switch t := v.(type) {
	case NoneV:
		return false
	case BoolV:
		return bool(t)
	case IntV:
		return t != 0
	case FloatV:
		return t != 0
	case StrV:
		return len(t) > 0
	case *ListV:
		return len(t.Elems) > 0
	case *TupleV:
		return len(t.Elems) > 0
	case *DictV:
		return t.Len() > 0
	}
	return true
}

// Equal implements Python ==.
func Equal(a, b Value) bool {
	switch x := a.(type) {
	case NoneV:
		_, ok := b.(NoneV)
		return ok
	case BoolV:
		switch y := b.(type) {
		case BoolV:
			return x == y
		case IntV:
			return boolToInt(bool(x)) == int64(y)
		case FloatV:
			return float64(boolToInt(bool(x))) == float64(y)
		}
		return false
	case IntV:
		switch y := b.(type) {
		case IntV:
			return x == y
		case FloatV:
			return float64(x) == float64(y)
		case BoolV:
			return int64(x) == boolToInt(bool(y))
		}
		return false
	case FloatV:
		switch y := b.(type) {
		case IntV:
			return float64(x) == float64(y)
		case FloatV:
			return x == y
		case BoolV:
			return float64(x) == float64(boolToInt(bool(y)))
		}
		return false
	case StrV:
		y, ok := b.(StrV)
		return ok && x == y
	case *ListV:
		y, ok := b.(*ListV)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !Equal(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	case *TupleV:
		y, ok := b.(*TupleV)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !Equal(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	case *DictV:
		y, ok := b.(*DictV)
		if !ok || x.Len() != y.Len() {
			return false
		}
		for _, kv := range x.Items() {
			other, ok := y.Get(kv[0])
			if !ok || !Equal(kv[1], other) {
				return false
			}
		}
		return true
	}
	return a == b
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// SizeOf returns the simulated heap size of a value in bytes. Sizes are
// crude but stable; large library footprints come from load_native, not
// from per-object accounting.
func SizeOf(v Value) int64 {
	switch t := v.(type) {
	case NoneV, BoolV:
		return 0 // interned singletons
	case IntV:
		return 28
	case FloatV:
		return 24
	case StrV:
		return 49 + int64(len(t))
	case *ListV:
		n := int64(56 + 8*len(t.Elems))
		return n
	case *TupleV:
		return int64(40 + 8*len(t.Elems))
	case *DictV:
		return int64(64 + 104*t.Len())
	case *FuncV:
		return 1500
	case *BuiltinV:
		return 72
	case *ClassV:
		return 3000
	case *InstanceV:
		return int64(56 + 64*t.Dict.Len())
	case *BoundMethodV:
		return 64
	case *ModuleV:
		return 4000
	}
	return 48
}
