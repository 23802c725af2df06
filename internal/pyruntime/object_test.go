package pyruntime

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/vfs"
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
		if ns.snap == nil || len(ns.t.slots) != 0 {
			t.Fatalf("lib was not replayed lazily with every slot unread (%d built)", len(ns.t.slots))
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

// TestNamespaceLayout keeps namespaces small: a corpus pass builds about
// 67 500 of them and binds about a million module-level names. The header
// holds the slot table plus a replay's node and installer; a presized
// module namespace costs its slots and their index, measured as the bytes
// the Go heap hands out for it.
func TestNamespaceLayout(t *testing.T) {
	if size := unsafe.Sizeof(Namespace{}); size > 64 {
		t.Errorf("Namespace is %d bytes, want at most 64", size)
	}
	const n, rounds = 1416, 20
	names := make([]string, n)
	vals := make([]Value, n)
	for i := range names {
		names[i] = fmt.Sprintf("attr_%d", i)
		vals[i] = IntV(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		ns := newNamespaceSize(n)
		for i, name := range names {
			ns.Set(name, vals[i])
		}
		namespaceSink = ns
	}
	runtime.ReadMemStats(&after)
	perName := float64(after.TotalAlloc-before.TotalAlloc) / rounds / n
	if perName > 48 {
		t.Errorf("a presized %d-name namespace costs %.1f bytes per name, want at most 48", n, perName)
	}
	t.Logf("a presized %d-name namespace costs %.1f bytes per name", n, perName)
}

var namespaceSink *Namespace

// TestModuleNamespacePresized: importOne sizes a module's namespace for the
// names its body binds, the submodules its imports bind into it among
// them, so the body never grows the table.
func TestModuleNamespacePresized(t *testing.T) {
	fs := vfs.New()
	fs.Write("site-packages/lib/__init__.py", "import lib._a\nfrom lib._b import f, g\nX = 1\n")
	fs.Write("site-packages/lib/_a.py", "")
	fs.Write("site-packages/lib/_b.py", "def f():\n    return 1\ng = 2\n")
	in := New(fs)
	mod, err := in.Import("lib")
	if err != nil {
		t.Fatal(err)
	}
	ns := mod.Dict
	if got := strings.Join(ns.Names(), ","); got != "__name__,__file__,_a,lib,_b,f,g,X" {
		t.Fatalf("lib binds %s", got)
	}
	if c := cap(ns.t.slots); c != ns.Len() {
		t.Errorf("lib's namespace has room for %d slots, binds %d", c, ns.Len())
	}
}

// refNS is the reference model of a namespace: an insertion-ordered map. A
// Set of a bound name keeps its place and reports it as not new, a Delete
// removes it from the order, and a replayed namespace starts with its
// recorded names bound, read or not.
type refNS struct {
	order []string
	m     map[string]Value
}

func (r *refNS) set(name string, v Value) bool {
	_, had := r.m[name]
	r.m[name] = v
	if !had {
		r.order = append(r.order, name)
	}
	return !had
}

func (r *refNS) del(name string) bool {
	if _, ok := r.m[name]; !ok {
		return false
	}
	delete(r.m, name)
	r.order = slices.DeleteFunc(r.order, func(o string) bool { return o == name })
	return true
}

// nsNames is the pool of names the reference check binds: more than a
// small table scans, in lengths that share prefixes.
var nsNames = func() []string {
	out := make([]string, 40)
	for i := range out {
		out[i] = strings.Repeat("n", 1+i%3) + strconv.Itoa(i)
	}
	return out
}()

// checkNamespaceOps decodes data into a namespace and a sequence of
// operations, runs them on the namespace and on the reference model, and
// reports the first result that differs. data[0] picks the namespace:
// fresh, presized for data[1]%16 names (fewer than the pool, so Sets
// overflow it), or replayed from a node recording the first data[1]%24
// pool names. Each later pair of bytes is one operation and a pool name.
// At the end every name is read, and the namespace is captured: the
// captured node must list the same names and find each through its copied
// index.
func checkNamespaceOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	in := New(vfs.New())
	in.SetSnapshots(NewSnapshotCache())
	ref := &refNS{m: make(map[string]Value)}
	var ns *Namespace
	switch data[0] % 3 {
	case 0:
		ns = NewNamespace()
	case 1:
		ns = newNamespaceSize(int(data[1] % 16))
	default:
		node := &snapNS{}
		for i, name := range nsNames[:data[1]%24] {
			node.slots = append(node.slots, slot[any]{name, &snapLit{v: IntV(1000 + i)}})
			ref.set(name, IntV(1000+i))
		}
		node.copyIndex(nil, 0)
		si := &snapInstaller{in: in, memo: make(map[any]any)}
		ns = si.ns(node)
	}
	ops := data[2:]
	for i := 0; i+1 < len(ops); i += 2 {
		name := nsNames[int(ops[i+1])%len(nsNames)]
		step := fmt.Sprintf("op %d", i/2)
		switch ops[i] % 7 {
		case 0, 1:
			v := IntV(i)
			if got, want := ns.Set(name, v), ref.set(name, v); got != want {
				t.Fatalf("%s: Set(%q) = %v, reference %v", step, name, got, want)
			}
		case 2:
			got, gok := ns.Get(name)
			want, wok := ref.m[name]
			if gok != wok || got != want {
				t.Fatalf("%s: Get(%q) = %v, %v; reference %v, %v", step, name, got, gok, want, wok)
			}
		case 3:
			_, want := ref.m[name]
			if got := ns.Has(name); got != want {
				t.Fatalf("%s: Has(%q) = %v, reference %v", step, name, got, want)
			}
		case 4:
			if got, want := ns.Delete(name), ref.del(name); got != want {
				t.Fatalf("%s: Delete(%q) = %v, reference %v", step, name, got, want)
			}
		case 5:
			if got, want := ns.Len(), len(ref.order); got != want {
				t.Fatalf("%s: Len() = %d, reference %d", step, got, want)
			}
		case 6:
			if got, want := ns.Names(), ref.order; !slices.Equal(got, want) {
				t.Fatalf("%s: Names() = %v, reference %v", step, got, want)
			}
			want := slices.Clone(ref.order)
			sort.Strings(want)
			if got := ns.SortedNames(); !slices.Equal(got, want) {
				t.Fatalf("%s: SortedNames() = %v, reference %v", step, got, want)
			}
		}
	}
	if got := ns.Names(); !slices.Equal(got, ref.order) || ns.Len() != len(ref.order) {
		t.Fatalf("final Names() = %v (Len %d), reference %v", got, ns.Len(), ref.order)
	}
	// An odd data[1] captures the namespace as an enclosing window that
	// adopted its replay does, referencing unread slots' nodes.
	c := &snapCloner{in: in, origin: make(map[any]any), memo: make(map[any]any), adoptedSI: make(map[*snapInstaller]bool)}
	if data[1]%2 == 1 {
		c.adoptedSI[ns.si] = true
	}
	node := c.cloneNS(ns).(*snapNS)
	for i, name := range ref.order {
		if v, ok := ns.Get(name); !ok || v != ref.m[name] {
			t.Fatalf("final Get(%q) = %v, %v; reference %v", name, v, ok, ref.m[name])
		}
		j, ok := node.find(name)
		if !ok || j != i || node.slots[j].val.(*snapLit).v != ref.m[name] {
			t.Fatalf("captured node finds %q at %d (%v), want slot %d", name, j, ok, i)
		}
	}
	if len(node.slots) != len(ref.order) {
		t.Fatalf("captured node holds %d slots, reference %d", len(node.slots), len(ref.order))
	}
}

// TestNamespaceMatchesReference runs random operation sequences on fresh,
// presized and replayed namespaces against the reference model.
func TestNamespaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 600; seed++ {
		data := make([]byte, 2+2*(1+rng.Intn(120)))
		rng.Read(data)
		data[0] = byte(seed % 3)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkNamespaceOps(t, data) })
	}
}

// FuzzNamespace explores the same operation sequences, coverage-guided.
func FuzzNamespace(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 4, 1, 6, 0})
	f.Add([]byte{1, 5, 0, 3, 1, 9, 0, 12, 0, 20, 0, 30, 6, 0, 4, 9, 5, 0})
	f.Add([]byte{2, 20, 2, 3, 0, 3, 0, 30, 3, 4, 6, 0, 4, 5, 0, 5, 6, 0})
	f.Fuzz(checkNamespaceOps)
}
