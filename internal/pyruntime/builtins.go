package pyruntime

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/simtime"
)

// NativeBuf models memory held by native (C-extension) code: model weights,
// lookup tables, compiled kernels. Synthetic libraries create these during
// initialization; removing the creating statement via DD releases the
// simulated footprint — the mechanism behind the paper's memory savings.
type NativeBuf struct {
	MB float64
}

func (*NativeBuf) TypeName() string { return "native_buffer" }

// The builtins namespace is built once and shared by every interpreter:
// every value in it is immutable — a BuiltinV is a name plus a stateless
// function that receives the interpreter per call, and builtin classes
// reject setAttr (as CPython does) — and nothing ever writes to the
// namespace itself, so a per-interpreter copy would only burn allocations.
var (
	builtinsOnce   sync.Once
	builtinsShared *Namespace
)

func (in *Interp) buildBuiltins() *Namespace {
	builtinsOnce.Do(func() { builtinsShared = buildBuiltinFuncs() })
	return builtinsShared
}

func buildBuiltinFuncs() *Namespace {
	ns := NewNamespace()
	reg := func(name string, fn func(*Interp, []Value, map[string]Value) (Value, *PyErr)) {
		ns.Set(name, &BuiltinV{Name: name, Fn: fn})
	}

	reg("print", biPrint)
	reg("len", biLen)
	reg("range", biRange)
	reg("str", biStr)
	reg("repr", biRepr)
	reg("int", biInt)
	reg("float", biFloat)
	reg("bool", biBool)
	reg("list", biList)
	reg("tuple", biTuple)
	reg("dict", biDict)
	reg("abs", biAbs)
	reg("min", biMin)
	reg("max", biMax)
	reg("sum", biSum)
	reg("sorted", biSorted)
	reg("reversed", biReversed)
	reg("enumerate", biEnumerate)
	reg("zip", biZip)
	reg("isinstance", biIsinstance)
	reg("issubclass", biIssubclass)
	reg("hasattr", biHasattr)
	reg("getattr", biGetattr)
	reg("setattr", biSetattr)
	reg("type", biType)
	reg("round", biRound)
	reg("dir", biDir)
	reg("callable", biCallable)
	reg("id", biID)

	// Substrate-specific builtins (documented in DESIGN.md):
	// load_native models loading a native extension — it advances the
	// virtual clock and allocates simulated memory. It is how synthetic
	// libraries carry the import-time and footprint of their real
	// counterparts.
	reg("load_native", biLoadNative)
	// native_alloc returns a buffer holding simulated megabytes; assigning
	// it to a module attribute ties the footprint to that attribute.
	reg("native_alloc", biNativeAlloc)
	// compute models CPU work in the handler (milliseconds).
	reg("compute", biCompute)
	// remote_call journals an external side effect (S3, DB, child lambda).
	reg("remote_call", biRemoteCall)

	return ns
}

func biPrint(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	sep, end := " ", "\n"
	if v, ok := kwargs["sep"]; ok {
		sep = Str(v)
	}
	if v, ok := kwargs["end"]; ok {
		end = Str(v)
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = Str(a)
	}
	fmt.Fprint(in.Stdout, strings.Join(parts, sep)+end)
	return None, nil
}

func biLen(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 1 {
		return nil, in.NewExc("TypeError", "len() takes exactly one argument (%d given)", len(args))
	}
	switch t := args[0].(type) {
	case StrV:
		return IntV(len(t)), nil
	case *ListV:
		return IntV(len(t.Elems)), nil
	case *TupleV:
		return IntV(len(t.Elems)), nil
	case *DictV:
		return IntV(t.Len()), nil
	case *RangeV:
		return IntV(t.Len()), nil
	}
	return nil, in.NewExc("TypeError", "object of type '%s' has no len()", args[0].TypeName())
}

func biRange(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	get := func(v Value) (int64, *PyErr) {
		iv, ok := asInt(v)
		if !ok {
			return 0, in.NewExc("TypeError", "range() argument must be int, not %s", v.TypeName())
		}
		return iv, nil
	}
	switch len(args) {
	case 1:
		stop, err := get(args[0])
		if err != nil {
			return nil, err
		}
		return &RangeV{Start: 0, Stop: stop, Step: 1}, nil
	case 2:
		start, err := get(args[0])
		if err != nil {
			return nil, err
		}
		stop, err := get(args[1])
		if err != nil {
			return nil, err
		}
		return &RangeV{Start: start, Stop: stop, Step: 1}, nil
	case 3:
		start, err := get(args[0])
		if err != nil {
			return nil, err
		}
		stop, err := get(args[1])
		if err != nil {
			return nil, err
		}
		step, err := get(args[2])
		if err != nil {
			return nil, err
		}
		if step == 0 {
			return nil, in.NewExc("ValueError", "range() arg 3 must not be zero")
		}
		return &RangeV{Start: start, Stop: stop, Step: step}, nil
	}
	return nil, in.NewExc("TypeError", "range expected 1 to 3 arguments, got %d", len(args))
}

func biStr(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) == 0 {
		return StrV(""), nil
	}
	return StrV(Str(args[0])), nil
}

func biRepr(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 1 {
		return nil, in.NewExc("TypeError", "repr() takes exactly one argument")
	}
	return StrV(Repr(args[0])), nil
}

func biInt(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) == 0 {
		return IntV(0), nil
	}
	switch t := args[0].(type) {
	case IntV:
		return t, nil
	case BoolV:
		return IntV(boolToInt(bool(t))), nil
	case FloatV:
		return IntV(int64(t)), nil
	case StrV:
		iv, err := strconv.ParseInt(strings.TrimSpace(string(t)), 10, 64)
		if err != nil {
			return nil, in.NewExc("ValueError", "invalid literal for int() with base 10: %s", Repr(t))
		}
		return IntV(iv), nil
	}
	return nil, in.NewExc("TypeError", "int() argument must be a string or a number, not '%s'", args[0].TypeName())
}

func biFloat(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) == 0 {
		return FloatV(0), nil
	}
	switch t := args[0].(type) {
	case FloatV:
		return t, nil
	case IntV:
		return FloatV(t), nil
	case BoolV:
		return FloatV(boolToInt(bool(t))), nil
	case StrV:
		fv, err := strconv.ParseFloat(strings.TrimSpace(string(t)), 64)
		if err != nil {
			return nil, in.NewExc("ValueError", "could not convert string to float: %s", Repr(t))
		}
		return FloatV(fv), nil
	}
	return nil, in.NewExc("TypeError", "float() argument must be a string or a number, not '%s'", args[0].TypeName())
}

func biBool(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) == 0 {
		return BoolV(false), nil
	}
	return BoolV(Truth(args[0])), nil
}

func biList(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) == 0 {
		return &ListV{}, nil
	}
	elems, err := in.iterate(args[0], pos0)
	if err != nil {
		return nil, err
	}
	return &ListV{Elems: elems}, nil
}

func biTuple(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) == 0 {
		return &TupleV{}, nil
	}
	elems, err := in.iterate(args[0], pos0)
	if err != nil {
		return nil, err
	}
	return &TupleV{Elems: elems}, nil
}

func biDict(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	d := NewDict()
	if len(args) == 1 {
		if src, ok := args[0].(*DictV); ok {
			for _, kv := range src.Items() {
				d.Set(kv[0], kv[1])
			}
		} else {
			return nil, in.NewExc("TypeError", "dict() argument must be a dict")
		}
	}
	for _, k := range sortedKwargKeys(kwargs) {
		d.SetStr(k, kwargs[k])
	}
	return d, nil
}

// sortedKwargKeys orders keyword arguments deterministically before they
// are inserted into an ordered dict (Go map iteration is randomized; the
// oracle compares printed dicts byte-for-byte).
func sortedKwargKeys(kwargs map[string]Value) []string {
	keys := make([]string, 0, len(kwargs))
	for k := range kwargs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func biAbs(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 1 {
		return nil, in.NewExc("TypeError", "abs() takes exactly one argument")
	}
	switch t := args[0].(type) {
	case IntV:
		if t < 0 {
			return -t, nil
		}
		return t, nil
	case FloatV:
		return FloatV(math.Abs(float64(t))), nil
	case BoolV:
		return IntV(boolToInt(bool(t))), nil
	}
	return nil, in.NewExc("TypeError", "bad operand type for abs(): '%s'", args[0].TypeName())
}

func extremum(in *Interp, args []Value, wantMax bool) (Value, *PyErr) {
	var items []Value
	if len(args) == 1 {
		var err *PyErr
		items, err = in.iterate(args[0], pos0)
		if err != nil {
			return nil, err
		}
	} else {
		items = args
	}
	if len(items) == 0 {
		return nil, in.NewExc("ValueError", "arg is an empty sequence")
	}
	best := items[0]
	for _, item := range items[1:] {
		af, aok := asFloat(item)
		bf, bok := asFloat(best)
		if aok && bok {
			if (wantMax && af > bf) || (!wantMax && af < bf) {
				best = item
			}
			continue
		}
		as, asok := item.(StrV)
		bs, bsok := best.(StrV)
		if asok && bsok {
			if (wantMax && as > bs) || (!wantMax && as < bs) {
				best = item
			}
			continue
		}
		return nil, in.NewExc("TypeError", "'<' not supported between instances of '%s' and '%s'",
			item.TypeName(), best.TypeName())
	}
	return best, nil
}

func biMin(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	return extremum(in, args, false)
}

func biMax(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	return extremum(in, args, true)
}

func biSum(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) < 1 {
		return nil, in.NewExc("TypeError", "sum() takes at least 1 argument")
	}
	items, err := in.iterate(args[0], pos0)
	if err != nil {
		return nil, err
	}
	intSum := int64(0)
	floatSum := 0.0
	isFloat := false
	if len(args) > 1 {
		switch s := args[1].(type) {
		case IntV:
			intSum = int64(s)
		case FloatV:
			floatSum = float64(s)
			isFloat = true
		}
	}
	for _, item := range items {
		switch t := item.(type) {
		case IntV:
			intSum += int64(t)
		case FloatV:
			floatSum += float64(t)
			isFloat = true
		case BoolV:
			intSum += boolToInt(bool(t))
		default:
			return nil, in.NewExc("TypeError", "unsupported operand type(s) for +: 'int' and '%s'", item.TypeName())
		}
	}
	if isFloat {
		return FloatV(floatSum + float64(intSum)), nil
	}
	return IntV(intSum), nil
}

func biSorted(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 1 {
		return nil, in.NewExc("TypeError", "sorted() takes one positional argument")
	}
	items, err := in.iterate(args[0], pos0)
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(items))
	copy(out, items)
	keyFn, hasKey := kwargs["key"]
	reverse := false
	if rv, ok := kwargs["reverse"]; ok {
		reverse = Truth(rv)
	}
	keys := out
	if hasKey {
		keys = make([]Value, len(out))
		for i, item := range out {
			kv, kerr := in.call(keyFn, []Value{item}, nil, pos0)
			if kerr != nil {
				return nil, kerr
			}
			keys[i] = kv
		}
	}
	var sortErr *PyErr
	indices := make([]int, len(out))
	for i := range indices {
		indices[i] = i
	}
	sort.SliceStable(indices, func(a, b int) bool {
		if sortErr != nil {
			return false
		}
		less, err := in.compareOne(ltKind, keys[indices[a]], keys[indices[b]], pos0)
		if err != nil {
			sortErr = err
			return false
		}
		return less
	})
	if sortErr != nil {
		return nil, sortErr
	}
	final := make([]Value, len(out))
	for i, idx := range indices {
		final[i] = out[idx]
	}
	if reverse {
		for i, j := 0, len(final)-1; i < j; i, j = i+1, j-1 {
			final[i], final[j] = final[j], final[i]
		}
	}
	return &ListV{Elems: final}, nil
}

func biReversed(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 1 {
		return nil, in.NewExc("TypeError", "reversed() takes exactly one argument")
	}
	items, err := in.iterate(args[0], pos0)
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(items))
	for i, item := range items {
		out[len(items)-1-i] = item
	}
	return &ListV{Elems: out}, nil
}

func biEnumerate(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) < 1 {
		return nil, in.NewExc("TypeError", "enumerate() missing required argument")
	}
	start := int64(0)
	if len(args) > 1 {
		if s, ok := asInt(args[1]); ok {
			start = s
		}
	}
	items, err := in.iterate(args[0], pos0)
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(items))
	for i, item := range items {
		out[i] = &TupleV{Elems: []Value{IntV(start + int64(i)), item}}
	}
	return &ListV{Elems: out}, nil
}

func biZip(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) == 0 {
		return &ListV{}, nil
	}
	seqs := make([][]Value, len(args))
	minLen := -1
	for i, a := range args {
		items, err := in.iterate(a, pos0)
		if err != nil {
			return nil, err
		}
		seqs[i] = items
		if minLen < 0 || len(items) < minLen {
			minLen = len(items)
		}
	}
	out := make([]Value, minLen)
	for i := 0; i < minLen; i++ {
		row := make([]Value, len(seqs))
		for j := range seqs {
			row[j] = seqs[j][i]
		}
		out[i] = &TupleV{Elems: row}
	}
	return &ListV{Elems: out}, nil
}

func valueIsInstance(v Value, c *ClassV) bool {
	switch t := v.(type) {
	case *InstanceV:
		return t.Class.IsSubclassOf(c)
	case NoneV:
		return false
	case BoolV:
		return c.Name == "bool" || c.Name == "int" || c.Name == "object"
	case IntV:
		return c.Name == "int" || c.Name == "object"
	case FloatV:
		return c.Name == "float" || c.Name == "object"
	case StrV:
		return c.Name == "str" || c.Name == "object"
	case *ListV:
		return c.Name == "list" || c.Name == "object"
	case *TupleV:
		return c.Name == "tuple" || c.Name == "object"
	case *DictV:
		return c.Name == "dict" || c.Name == "object"
	}
	return c.Name == "object"
}

func biIsinstance(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 2 {
		return nil, in.NewExc("TypeError", "isinstance expected 2 arguments, got %d", len(args))
	}
	classes := []Value{args[1]}
	if tup, ok := args[1].(*TupleV); ok {
		classes = tup.Elems
	}
	for _, cv := range classes {
		switch c := cv.(type) {
		case *ClassV:
			if valueIsInstance(args[0], c) {
				return BoolV(true), nil
			}
		case *BuiltinV:
			// Builtin constructors (str, int, ...) used as types.
			if args[0].TypeName() == c.Name {
				return BoolV(true), nil
			}
			if c.Name == "int" {
				if _, ok := args[0].(BoolV); ok {
					return BoolV(true), nil
				}
			}
		default:
			return nil, in.NewExc("TypeError", "isinstance() arg 2 must be a type or tuple of types")
		}
	}
	return BoolV(false), nil
}

func biIssubclass(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 2 {
		return nil, in.NewExc("TypeError", "issubclass expected 2 arguments")
	}
	sub, ok1 := args[0].(*ClassV)
	sup, ok2 := args[1].(*ClassV)
	if !ok1 || !ok2 {
		return nil, in.NewExc("TypeError", "issubclass() args must be classes")
	}
	return BoolV(sub.IsSubclassOf(sup)), nil
}

func biHasattr(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 2 {
		return nil, in.NewExc("TypeError", "hasattr expected 2 arguments")
	}
	name, ok := args[1].(StrV)
	if !ok {
		return nil, in.NewExc("TypeError", "attribute name must be string")
	}
	_, err := in.getAttr(args[0], string(name), pos0)
	return BoolV(err == nil), nil
}

func biGetattr(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) < 2 || len(args) > 3 {
		return nil, in.NewExc("TypeError", "getattr expected 2 or 3 arguments")
	}
	name, ok := args[1].(StrV)
	if !ok {
		return nil, in.NewExc("TypeError", "attribute name must be string")
	}
	v, err := in.getAttr(args[0], string(name), pos0)
	if err != nil {
		if len(args) == 3 && err.ClassName() == "AttributeError" {
			return args[2], nil
		}
		return nil, err
	}
	return v, nil
}

func biSetattr(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 3 {
		return nil, in.NewExc("TypeError", "setattr expected 3 arguments")
	}
	name, ok := args[1].(StrV)
	if !ok {
		return nil, in.NewExc("TypeError", "attribute name must be string")
	}
	if err := in.setAttr(args[0], string(name), args[2], pos0); err != nil {
		return nil, err
	}
	return None, nil
}

func biType(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 1 {
		return nil, in.NewExc("TypeError", "type() takes 1 argument here")
	}
	if inst, ok := args[0].(*InstanceV); ok {
		return inst.Class, nil
	}
	return StrV("<class '" + args[0].TypeName() + "'>"), nil
}

func biRound(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) < 1 {
		return nil, in.NewExc("TypeError", "round() missing required argument")
	}
	f, ok := asFloat(args[0])
	if !ok {
		return nil, in.NewExc("TypeError", "type %s doesn't define __round__", args[0].TypeName())
	}
	digits := int64(0)
	hasDigits := false
	if len(args) > 1 {
		if d, ok := asInt(args[1]); ok {
			digits = d
			hasDigits = true
		}
	}
	scale := math.Pow(10, float64(digits))
	r := math.RoundToEven(f*scale) / scale
	if !hasDigits {
		if _, isInt := args[0].(IntV); isInt {
			return args[0], nil
		}
		return IntV(int64(r)), nil
	}
	return FloatV(r), nil
}

func biDir(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 1 {
		return nil, in.NewExc("TypeError", "dir() takes one argument here")
	}
	var names []string
	switch t := args[0].(type) {
	case *ModuleV:
		names = t.Dict.SortedNames()
	case *ClassV:
		seen := map[string]bool{}
		for k := t; k != nil; k = k.Base {
			for _, n := range k.Dict.Names() {
				seen[n] = true
			}
		}
		for n := range seen {
			names = append(names, n)
		}
		sort.Strings(names)
	case *InstanceV:
		seen := map[string]bool{}
		for _, n := range t.Dict.Names() {
			seen[n] = true
		}
		for k := t.Class; k != nil; k = k.Base {
			for _, n := range k.Dict.Names() {
				seen[n] = true
			}
		}
		for n := range seen {
			names = append(names, n)
		}
		sort.Strings(names)
	default:
		return nil, in.NewExc("TypeError", "dir() unsupported for '%s'", args[0].TypeName())
	}
	out := make([]Value, len(names))
	for i, n := range names {
		out[i] = StrV(n)
	}
	return &ListV{Elems: out}, nil
}

func biCallable(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 1 {
		return nil, in.NewExc("TypeError", "callable() takes one argument")
	}
	switch args[0].(type) {
	case *FuncV, *BuiltinV, *ClassV, *BoundMethodV:
		return BoolV(true), nil
	}
	return BoolV(false), nil
}

func biID(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	// Deterministic stand-in: a monotonically increasing per-interpreter
	// token. Real id() values are address-dependent; corpus code only uses
	// id() for uniqueness, which this preserves within a run. Keeping the
	// counter on the interpreter also keeps concurrent runs (the corpus
	// pool's) deterministic and race-free.
	in.idCounter++
	return IntV(in.idCounter), nil
}

// biLoadNative advances the virtual clock by args[0] milliseconds and
// allocates args[1] simulated megabytes, modeling a native extension load
// (shared-object mmap + static initializers).
func biLoadNative(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 2 {
		return nil, in.NewExc("TypeError", "load_native(ms, mb) takes 2 arguments")
	}
	ms, ok1 := asFloat(args[0])
	mb, ok2 := asFloat(args[1])
	if !ok1 || !ok2 {
		return nil, in.NewExc("TypeError", "load_native arguments must be numbers")
	}
	if ms < 0 || mb < 0 {
		return nil, in.NewExc("ValueError", "load_native arguments must be non-negative")
	}
	in.Clock.Advance(time.Duration(ms * float64(time.Millisecond)))
	in.Alloc.Alloc(int64(mb * float64(simtime.MB)))
	return None, nil
}

// biNativeAlloc allocates args[0] simulated megabytes and returns a buffer
// value holding them.
func biNativeAlloc(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 1 {
		return nil, in.NewExc("TypeError", "native_alloc(mb) takes 1 argument")
	}
	mb, ok := asFloat(args[0])
	if !ok || mb < 0 {
		return nil, in.NewExc("ValueError", "native_alloc argument must be a non-negative number")
	}
	in.Alloc.Alloc(int64(mb * float64(simtime.MB)))
	return &NativeBuf{MB: mb}, nil
}

// biCompute advances the virtual clock by args[0] milliseconds, modeling
// handler CPU work.
func biCompute(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 1 {
		return nil, in.NewExc("TypeError", "compute(ms) takes 1 argument")
	}
	ms, ok := asFloat(args[0])
	if !ok || ms < 0 {
		return nil, in.NewExc("ValueError", "compute argument must be a non-negative number")
	}
	in.Clock.Advance(time.Duration(ms * float64(time.Millisecond)))
	return None, nil
}

// biRemoteCall journals an external side effect and returns a canned
// response dict. The oracle compares journals between original and
// debloated runs.
func biRemoteCall(in *Interp, args []Value, kwargs map[string]Value) (Value, *PyErr) {
	if len(args) != 3 {
		return nil, in.NewExc("TypeError", "remote_call(service, op, payload) takes 3 arguments")
	}
	service, ok1 := args[0].(StrV)
	op, ok2 := args[1].(StrV)
	if !ok1 || !ok2 {
		return nil, in.NewExc("TypeError", "remote_call service and op must be strings")
	}
	in.RemoteLog = append(in.RemoteLog, RemoteCall{
		Service: string(service), Op: string(op), Payload: Repr(args[2]),
	})
	// Remote calls have network latency.
	in.Clock.Advance(12 * time.Millisecond)
	resp := NewDict()
	resp.SetStr("status", IntV(200))
	resp.SetStr("service", service)
	resp.SetStr("op", op)
	return resp, nil
}
