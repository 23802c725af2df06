package pyruntime

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDictInsertionOrder(t *testing.T) {
	d := NewDict()
	d.SetStr("z", IntV(1))
	d.SetStr("a", IntV(2))
	d.SetStr("m", IntV(3))
	items := d.Items()
	if Str(items[0][0]) != "z" || Str(items[1][0]) != "a" || Str(items[2][0]) != "m" {
		t.Errorf("order = %v", Repr(d))
	}
	// Re-setting an existing key keeps its position (Python 3.7 semantics).
	d.SetStr("a", IntV(99))
	items = d.Items()
	if Str(items[1][0]) != "a" || items[1][1] != IntV(99) {
		t.Errorf("re-set moved key: %v", Repr(d))
	}
}

func TestDictIntFloatKeyEquivalence(t *testing.T) {
	d := NewDict()
	d.Set(IntV(1), StrV("int"))
	if v, ok := d.Get(FloatV(1.0)); !ok || Str(v) != "int" {
		t.Error("1 and 1.0 should hash identically, as in Python")
	}
	d.Set(FloatV(1.0), StrV("float"))
	if d.Len() != 1 {
		t.Errorf("len = %d, want 1", d.Len())
	}
}

func TestDictTupleKeys(t *testing.T) {
	d := NewDict()
	k1 := &TupleV{Elems: []Value{IntV(1), StrV("a")}}
	k2 := &TupleV{Elems: []Value{IntV(1), StrV("a")}}
	d.Set(k1, IntV(10))
	if v, ok := d.Get(k2); !ok || v != IntV(10) {
		t.Error("equal tuples should be interchangeable keys")
	}
}

func TestDictUnhashableKeys(t *testing.T) {
	d := NewDict()
	if d.Set(&ListV{}, IntV(1)) {
		t.Error("lists must be unhashable")
	}
	if d.Set(NewDict(), IntV(1)) {
		t.Error("dicts must be unhashable")
	}
}

func TestDictDelete(t *testing.T) {
	d := NewDict()
	d.SetStr("a", IntV(1))
	d.SetStr("b", IntV(2))
	if !d.Delete(StrV("a")) {
		t.Error("delete existing failed")
	}
	if d.Delete(StrV("a")) {
		t.Error("double delete succeeded")
	}
	if d.Len() != 1 {
		t.Errorf("len = %d", d.Len())
	}
	items := d.Items()
	if Str(items[0][0]) != "b" {
		t.Error("order corrupted after delete")
	}
}

// Property: DictV behaves like a Go map with insertion order, under any
// sequence of string-keyed set/delete operations.
func TestQuickDictModel(t *testing.T) {
	type op struct {
		Key    string
		Val    int64
		Delete bool
	}
	f := func(ops []op) bool {
		d := NewDict()
		model := map[string]int64{}
		var order []string
		for _, o := range ops {
			if o.Delete {
				if _, ok := model[o.Key]; ok {
					delete(model, o.Key)
					for i, k := range order {
						if k == o.Key {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
					if !d.Delete(StrV(o.Key)) {
						return false
					}
				} else if d.Delete(StrV(o.Key)) {
					return false
				}
				continue
			}
			if _, ok := model[o.Key]; !ok {
				order = append(order, o.Key)
			}
			model[o.Key] = o.Val
			d.SetStr(o.Key, IntV(o.Val))
		}
		if d.Len() != len(model) {
			return false
		}
		items := d.Items()
		if len(items) != len(order) {
			return false
		}
		for i, k := range order {
			if Str(items[i][0]) != k || items[i][1] != IntV(model[k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestNamespaceOrderAndDelete(t *testing.T) {
	ns := NewNamespace()
	ns.Set("c", IntV(1))
	ns.Set("a", IntV(2))
	ns.Set("b", IntV(3))
	names := ns.Names()
	if strings.Join(names, "") != "cab" {
		t.Errorf("insertion order = %v", names)
	}
	if strings.Join(ns.SortedNames(), "") != "abc" {
		t.Errorf("sorted = %v", ns.SortedNames())
	}
	ns.Delete("a")
	if strings.Join(ns.Names(), "") != "cb" {
		t.Errorf("after delete = %v", ns.Names())
	}
	if ns.Len() != 2 {
		t.Errorf("len = %d", ns.Len())
	}
}

// TestNamespaceSetReportsNewName: Set reports whether it bound a new name,
// which bind, setAttr and Import use to charge a namespace slot without a
// second lookup. A replayed namespace's recorded slot is not new, whether or
// not it was read, and a Set on it keeps its place in Names().
func TestNamespaceSetReportsNewName(t *testing.T) {
	plain := func(*testing.T) *Namespace {
		ns := NewNamespace()
		ns.Set("a", IntV(1))
		ns.Set("b", IntV(2))
		return ns
	}
	replayed := func(t *testing.T) *Namespace {
		files := map[string]string{"site-packages/lib.py": "A = 1\nB = 2\nC = 3\n"}
		snap := NewSnapshotCache()
		withMemo := func(in *Interp) { in.SetSnapshots(snap) }
		observe(t, "import lib\n", files, withMemo) // records
		_, in := observe(t, "import lib\n", files, withMemo)
		ns := in.Modules()["lib"].Dict
		if ns.snap == nil || len(ns.m) != 0 {
			t.Fatalf("lib was not replayed lazily with every slot unread (%d built)", len(ns.m))
		}
		return ns
	}
	read := func(name string) func(*Namespace) {
		return func(ns *Namespace) { ns.Get(name) }
	}
	del := func(name string) func(*Namespace) {
		return func(ns *Namespace) { ns.Delete(name) }
	}
	cases := []struct {
		name  string
		ns    func(*testing.T) *Namespace
		prep  func(*Namespace) // runs before Set(key); may be nil
		key   string
		want  bool
		names string
	}{
		{"new name", plain, nil, "c", true, "a,b,c"},
		{"rebind", plain, nil, "a", false, "a,b"},
		{"set after Delete", plain, del("a"), "a", true, "b,a"},
		{"unread recorded slot", replayed, nil, "B", false, "__name__,__file__,A,B,C"},
		{"read recorded slot", replayed, read("B"), "B", false, "__name__,__file__,A,B,C"},
		{"new name on a replayed namespace", replayed, nil, "D", true, "__name__,__file__,A,B,C,D"},
		{"set after Delete on a replayed namespace", replayed, del("B"), "B", true, "__name__,__file__,A,C,B"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ns := c.ns(t)
			if c.prep != nil {
				c.prep(ns)
			}
			if got := ns.Set(c.key, IntV(9)); got != c.want {
				t.Errorf("Set(%q) = %v, want %v", c.key, got, c.want)
			}
			if got := strings.Join(ns.Names(), ","); got != c.names {
				t.Errorf("Names() = %s, want %s", got, c.names)
			}
			if ns.Len() != len(ns.Names()) {
				t.Errorf("Len() = %d, Names() lists %d", ns.Len(), len(ns.Names()))
			}
			if v, ok := ns.Get(c.key); !ok || v != IntV(9) {
				t.Errorf("Get(%q) = %v, %v after Set", c.key, v, ok)
			}
		})
	}
}

// Property: Equal is reflexive and symmetric over generated scalar values.
func TestQuickEqualSymmetric(t *testing.T) {
	mk := func(kind uint8, i int64, f float64, s string) Value {
		switch kind % 5 {
		case 0:
			return IntV(i)
		case 1:
			return FloatV(f)
		case 2:
			return StrV(s)
		case 3:
			return BoolV(i%2 == 0)
		default:
			return None
		}
	}
	f := func(k1, k2 uint8, i1, i2 int64, f1, f2 float64, s1, s2 string) bool {
		a := mk(k1, i1, f1, s1)
		b := mk(k2, i2, f2, s2)
		if f1 == f1 && !Equal(a, a) { // skip NaN for reflexivity
			return false
		}
		return Equal(a, b) == Equal(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEqualNumericCrossTypes(t *testing.T) {
	if !Equal(IntV(3), FloatV(3.0)) {
		t.Error("3 == 3.0")
	}
	if !Equal(BoolV(true), IntV(1)) {
		t.Error("True == 1")
	}
	if Equal(StrV("1"), IntV(1)) {
		t.Error("'1' != 1")
	}
	if !Equal(
		&ListV{Elems: []Value{IntV(1), StrV("x")}},
		&ListV{Elems: []Value{FloatV(1), StrV("x")}}) {
		t.Error("nested numeric equality")
	}
}

func TestTruthTable(t *testing.T) {
	truthy := []Value{IntV(1), FloatV(0.1), StrV("x"), BoolV(true),
		&ListV{Elems: []Value{None}}, &TupleV{Elems: []Value{None}}}
	falsy := []Value{IntV(0), FloatV(0), StrV(""), BoolV(false), None,
		&ListV{}, &TupleV{}, NewDict()}
	for _, v := range truthy {
		if !Truth(v) {
			t.Errorf("%s should be truthy", Repr(v))
		}
	}
	for _, v := range falsy {
		if Truth(v) {
			t.Errorf("%s should be falsy", Repr(v))
		}
	}
}

func TestReprFormats(t *testing.T) {
	cases := map[string]Value{
		"None":          None,
		"True":          BoolV(true),
		"42":            IntV(42),
		"2.5":           FloatV(2.5),
		"3.0":           FloatV(3),
		"'hi'":          StrV("hi"),
		"'a\\nb'":       StrV("a\nb"),
		"'a\\\\b'":      StrV("a\\b"),
		"'it\\'s'":      StrV("it's"),
		"'a\\tb'":       StrV("a\tb"),
		"[1, 'x']":      &ListV{Elems: []Value{IntV(1), StrV("x")}},
		"(1,)":          &TupleV{Elems: []Value{IntV(1)}},
		"(1, 2)":        &TupleV{Elems: []Value{IntV(1), IntV(2)}},
		"{'k': [1]}":    mkDict("k", &ListV{Elems: []Value{IntV(1)}}),
		"<module 'os'>": &ModuleV{Name: "os"},
	}
	for want, v := range cases {
		if got := Repr(v); got != want {
			t.Errorf("Repr = %q, want %q", got, want)
		}
	}
}

// TestReprSelfReference: a container that holds itself prints the way
// CPython prints it, instead of recursing until the Go stack runs out.
// FuzzSnapshotReplay prints the repr of every attribute a fuzzed library
// defines, so such a library would otherwise crash the fuzzer.
func TestReprSelfReference(t *testing.T) {
	lst := &ListV{Elems: []Value{IntV(1)}}
	lst.Elems = append(lst.Elems, lst)
	d := NewDict()
	d.SetStr("self", d)
	inner := &ListV{}
	tup := &TupleV{Elems: []Value{inner}}
	inner.Elems = append(inner.Elems, tup)
	twice := &ListV{Elems: []Value{inner, inner}}
	cases := map[string]Value{
		"[1, [...]]":               lst,
		"{'self': {...}}":          d,
		"([(...)],)":               tup,
		"[[([...],)], [([...],)]]": twice,
	}
	for want, v := range cases {
		if got := Repr(v); got != want {
			t.Errorf("Repr = %q, want %q", got, want)
		}
	}
	o, _ := observe(t, "a = [1]\na.append(a)\nprint(a, str(a))\n", nil, nil)
	if want := "[1, [...]] [1, [...]]\n"; o.stdout != want || o.errs != "" {
		t.Errorf("print of a self-referencing list: stdout %q err %q, want %q", o.stdout, o.errs, want)
	}
}

func mkDict(k string, v Value) *DictV {
	d := NewDict()
	d.SetStr(k, v)
	return d
}

// Property: FromGo/ToGo round-trips JSON-like values.
func TestQuickConvertRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		if fl != fl { // NaN doesn't round-trip by equality
			return true
		}
		in := map[string]any{
			"int": i, "float": fl, "str": s, "bool": b,
			"list":   []any{i, s},
			"nested": map[string]any{"k": s},
			"null":   nil,
		}
		v, err := FromGo(in)
		if err != nil {
			return false
		}
		out, ok := ToGo(v).(map[string]any)
		if !ok {
			return false
		}
		if out["int"] != i || out["float"] != fl || out["str"] != s || out["bool"] != b {
			return false
		}
		lst, ok := out["list"].([]any)
		if !ok || len(lst) != 2 || lst[0] != i || lst[1] != s {
			return false
		}
		nested, ok := out["nested"].(map[string]any)
		return ok && nested["k"] == s && out["null"] == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromGoRejectsUnknownTypes(t *testing.T) {
	if _, err := FromGo(struct{}{}); err == nil {
		t.Error("struct should be rejected")
	}
	if _, err := FromGo(map[string]any{"bad": make(chan int)}); err == nil {
		t.Error("channel should be rejected")
	}
}

// TestFuncVLayout keeps a function value small: a corpus pass executes
// hundreds of thousands of def statements, and each allocates one. The code
// stays on the defining node (FuncV.Def, FuncV.Lambda).
func TestFuncVLayout(t *testing.T) {
	if size := unsafe.Sizeof(FuncV{}); size > 80 {
		t.Errorf("FuncV is %d bytes, want at most 80", size)
	}
}

func TestSizeOfPositive(t *testing.T) {
	values := []Value{IntV(1), FloatV(1), StrV("abc"), &ListV{},
		&TupleV{}, NewDict(), &FuncV{}, &ClassV{}, &ModuleV{},
		&InstanceV{Dict: NewNamespace()}}
	for _, v := range values {
		if SizeOf(v) < 0 {
			t.Errorf("SizeOf(%s) negative", v.TypeName())
		}
	}
	if SizeOf(StrV("aaaa")) <= SizeOf(StrV("a")) {
		t.Error("longer strings should be bigger")
	}
}

func TestRangeLen(t *testing.T) {
	cases := []struct {
		r    RangeV
		want int64
	}{
		{RangeV{0, 10, 1}, 10},
		{RangeV{0, 10, 3}, 4},
		{RangeV{10, 0, -1}, 10},
		{RangeV{10, 0, -3}, 4},
		{RangeV{0, 0, 1}, 0},
		{RangeV{5, 2, 1}, 0},
		{RangeV{2, 5, -1}, 0},
	}
	for _, c := range cases {
		if got := c.r.Len(); got != c.want {
			t.Errorf("Len(%+v) = %d, want %d", c.r, got, c.want)
		}
		if got := int64(len(c.r.materialize())); got != c.want {
			t.Errorf("materialize(%+v) = %d elems, want %d", c.r, got, c.want)
		}
	}
}

func TestClassSubclassChain(t *testing.T) {
	base := &ClassV{Name: "Base", Dict: NewNamespace()}
	mid := &ClassV{Name: "Mid", Base: base, Dict: NewNamespace()}
	leaf := &ClassV{Name: "Leaf", Base: mid, Dict: NewNamespace()}
	if !leaf.IsSubclassOf(base) || !leaf.IsSubclassOf(leaf) {
		t.Error("subclass chain broken")
	}
	if base.IsSubclassOf(leaf) {
		t.Error("inverse subclass relation")
	}
}
