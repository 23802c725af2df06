package pyruntime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/pylang"
	"repro/internal/pyparser"
	"repro/internal/vfs"
)

// snapTestImage builds a small app image exercising functions, classes,
// closures, containers, aliasing, nested imports, cyclic imports, id(),
// native buffers and remote calls at import time.
func snapTestImage() *vfs.FS {
	fs := vfs.New()
	fs.Write("site-packages/libA/__init__.py", `
import libA.core
from libA.core import helper, CONFIG
VERSION = "1.2"
registry = [helper, CONFIG]
print("libA ready")
`)
	fs.Write("site-packages/libA/core.py", `
load_native(5, 12.5)
CONFIG = {"mode": "fast", "level": 3}
def helper(x):
    return x * 2
class Engine:
    def __init__(self, n):
        self.n = n
    def run(self):
        return helper(self.n)
default_engine = Engine(7)
token = id(CONFIG)
buf = native_alloc(2.5)
r = range(4)
`)
	fs.Write("site-packages/libB.py", `
from libA import helper, CONFIG
import libA.core
alias = CONFIG
def wrapped(x):
    return helper(x) + 1
remote_call("s3", "get", "cfg")
`)
	fs.Write("app.py", `
import libB
from libA.core import default_engine
def handler(event, ctx):
    same = libB.alias is libB.CONFIG
    return [libB.wrapped(event), default_engine.run(), same]
`)
	return fs
}

type snapRunResult struct {
	out     string
	clock   int64
	remote  []RemoteCall
	fuel    int64
	idCount int64
	result  string
	mods    string // every module's namespace, names in insertion order
}

func snapRun(t *testing.T, fs *vfs.FS, snap *SnapshotCache) snapRunResult {
	t.Helper()
	in := New(fs)
	if snap != nil {
		in.SetSnapshots(snap)
	}
	r, err := trySnapRun(in)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// trySnapRun imports app into in and calls app.handler(10, None).
func trySnapRun(in *Interp) (snapRunResult, error) {
	mod, err := in.Import("app")
	if err != nil {
		return snapRunResult{}, fmt.Errorf("import app: %v", err)
	}
	h, ok := mod.Dict.Get("handler")
	if !ok {
		return snapRunResult{}, fmt.Errorf("app defines no handler")
	}
	res, err := in.CallFunction(h, []Value{IntV(10), None})
	if err != nil {
		return snapRunResult{}, fmt.Errorf("handler: %v", err)
	}
	var mods []string
	for name, m := range in.Modules() {
		mods = append(mods, name+": "+strings.Join(m.Dict.Names(), ","))
	}
	sort.Strings(mods)
	return snapRunResult{
		out:     in.OutputString(),
		clock:   int64(in.Clock.Now()),
		remote:  in.RemoteLog,
		fuel:    in.fuel,
		idCount: in.idCounter,
		result:  Repr(res),
		mods:    strings.Join(mods, "\n"),
	}, nil
}

// diffRuns lists each observable on which got departs from want.
func diffRuns(want, got snapRunResult) []string {
	var out []string
	if got.out != want.out {
		out = append(out, fmt.Sprintf("stdout diverged: %q vs %q", got.out, want.out))
	}
	if got.clock != want.clock {
		out = append(out, fmt.Sprintf("clock diverged: %d vs %d", got.clock, want.clock))
	}
	if got.fuel != want.fuel {
		out = append(out, fmt.Sprintf("fuel diverged: %d vs %d", got.fuel, want.fuel))
	}
	if got.idCount != want.idCount {
		out = append(out, fmt.Sprintf("id counter diverged: %d vs %d", got.idCount, want.idCount))
	}
	if got.result != want.result {
		out = append(out, fmt.Sprintf("result diverged: %s vs %s", got.result, want.result))
	}
	if got.mods != want.mods {
		out = append(out, fmt.Sprintf("module namespaces diverged:\n%s\nvs\n%s", got.mods, want.mods))
	}
	if !slices.Equal(got.remote, want.remote) {
		out = append(out, fmt.Sprintf("remote journal diverged: %+v vs %+v", got.remote, want.remote))
	}
	return out
}

func assertSameRun(t *testing.T, want, got snapRunResult, label string) {
	t.Helper()
	for _, d := range diffRuns(want, got) {
		t.Errorf("%s: %s", label, d)
	}
}

// TestSnapshotReplayByteIdentical is the core invariant: replaying memoized
// import windows must reproduce every simulated observable exactly.
func TestSnapshotReplayByteIdentical(t *testing.T) {
	fs := snapTestImage()
	baseline := snapRun(t, fs, nil)

	snap := NewSnapshotCache()
	first := snapRun(t, fs, snap) // records
	assertSameRun(t, baseline, first, "recording run")
	if s := snap.Stats(); s.Hits != 0 || s.Misses == 0 {
		t.Fatalf("recording run: unexpected stats %+v", s)
	}

	second := snapRun(t, fs, snap) // replays
	assertSameRun(t, baseline, second, "replay run")
	if s := snap.Stats(); s.Hits == 0 {
		t.Fatalf("replay run produced no cache hits: %+v", s)
	}
}

// TestSnapshotReplayedNamespaceIsFresh: replayed module state must be a
// fresh clone per interpreter — mutations in one run must not leak into the
// next replay.
func TestSnapshotReplayedNamespaceIsFresh(t *testing.T) {
	fs := vfs.New()
	fs.Write("site-packages/state.py", "items = [1, 2]\n")
	fs.Write("app.py", `
import state
def handler(event, ctx):
    state.items.append(event)
    return len(state.items)
`)
	snap := NewSnapshotCache()
	for i := 0; i < 3; i++ {
		in := New(fs)
		in.SetSnapshots(snap)
		mod, err := in.Import("app")
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		h, _ := mod.Dict.Get("handler")
		res, err := in.CallFunction(h, []Value{IntV(int64(i)), None})
		if err != nil {
			t.Fatalf("run %d handler: %v", i, err)
		}
		if Repr(res) != "3" {
			t.Fatalf("run %d: handler mutation leaked across replays: got %s", i, Repr(res))
		}
	}
}

// TestSnapshotInvalidatedByOverride: changing one module's source must force
// re-execution of windows that depend on it, while untouched leaf windows
// still replay.
func TestSnapshotInvalidatedByOverride(t *testing.T) {
	fs := snapTestImage()
	snap := NewSnapshotCache()
	snapRun(t, fs, snap)

	// Same cache, mutated libB source: libB (and app, which imports it)
	// must re-execute; the libA chain must still replay.
	fs2 := snapTestImage()
	fs2.Write("site-packages/libB.py", `
from libA import helper
def wrapped(x):
    return helper(x) + 100
alias = None
CONFIG = None
`)
	in := New(fs2)
	in.SetSnapshots(snap)
	mod, err := in.Import("app")
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	h, _ := mod.Dict.Get("handler")
	res, err := in.CallFunction(h, []Value{IntV(1), None})
	if err != nil {
		t.Fatalf("handler: %v", err)
	}
	lst, ok := res.(*ListV)
	if !ok || Repr(lst.Elems[0]) != "102" {
		t.Fatalf("modified libB not re-executed: %s", Repr(res))
	}
	if s := snap.Stats(); s.Hits == 0 {
		t.Fatalf("untouched libA chain should have replayed: %+v", s)
	}
}

// importAttr imports module name into a fresh interpreter over fs, with the
// caches and the override given (each may be nil), and renders the module's
// attribute attr and its __file__.
func importAttr(t *testing.T, fs *vfs.FS, snap *SnapshotCache, astc *ASTCache, ov *pylang.Module, name, attr string) string {
	t.Helper()
	in := New(fs)
	in.SetASTCache(astc)
	if snap != nil {
		in.SetSnapshots(snap)
	}
	if ov != nil {
		in.SetOverride(name, ov)
	}
	m, err := in.Import(name)
	if err != nil {
		t.Fatalf("import %s: %v", name, err)
	}
	v, _ := m.Dict.Get(attr)
	return Repr(v) + " " + m.File
}

// TestOverridesStayInTheirInterpreter: an override lives in the interpreter
// that set it, never in the image's record of the module, so another
// interpreter over the same image imports the file, with the memo on and
// off, whichever of the two resolved the name first.
func TestOverridesStayInTheirInterpreter(t *testing.T) {
	ov, err := pyparser.Parse("lib", "V = 'override'\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, memo := range []bool{false, true} {
		fs := vfs.New()
		fs.Write("site-packages/lib.py", "V = 'file'\n")
		var snap *SnapshotCache
		if memo {
			snap = NewSnapshotCache()
		}
		astc := NewASTCache()
		for i, o := range []*pylang.Module{ov, nil, ov, nil} {
			want := "'file' site-packages/lib.py"
			if o != nil {
				want = "'override' <override:lib>"
			}
			if got := importAttr(t, fs, snap, astc, o, "lib", "V"); got != want {
				t.Errorf("memo %v, import %d: got %s, want %s", memo, i, got, want)
			}
		}
	}
}

// TestImageWriteReachesNextImport: FS.Write drops the image's records, so
// the next interpreter imports the new content of a module an earlier one
// imported, with the memo on and off, and no entry recorded for the old
// content replays.
func TestImageWriteReachesNextImport(t *testing.T) {
	for _, memo := range []bool{false, true} {
		fs := vfs.New()
		fs.Write("site-packages/lib.py", "V = 'old'\n")
		fs.Write("app.py", "import lib\nW = lib.V\n")
		var snap *SnapshotCache
		if memo {
			snap = NewSnapshotCache()
		}
		astc := NewASTCache()
		for i := 0; i < 2; i++ {
			if got := importAttr(t, fs, snap, astc, nil, "app", "W"); got != "'old' app.py" {
				t.Fatalf("memo %v, run %d before the write: got %s", memo, i, got)
			}
		}
		if memo && snap.Stats().Hits == 0 {
			t.Fatalf("the second run replayed nothing: %+v", snap.Stats())
		}
		fs.Write("site-packages/lib.py", "V = 'new'\n")
		before := snap.Stats()
		if got := importAttr(t, fs, snap, astc, nil, "app", "W"); got != "'new' app.py" {
			t.Errorf("memo %v, after the write: got %s", memo, got)
		}
		if after := snap.Stats(); after.Hits != before.Hits {
			t.Errorf("memo %v: an entry recorded for the old content replayed: %+v -> %+v", memo, before, after)
		}
	}
}

// TestSnapshotCyclicImports: modules with an import cycle still record and
// replay correctly when the cycle is contained in one window.
func TestSnapshotCyclicImports(t *testing.T) {
	fs := vfs.New()
	fs.Write("site-packages/cyca.py", `
import cycb
A = 1
def fa():
    return cycb.B
`)
	fs.Write("site-packages/cycb.py", `
import cyca
B = 2
`)
	fs.Write("app.py", `
import cyca
def handler(event, ctx):
    return cyca.fa() + cyca.A
`)
	var want string
	snap := NewSnapshotCache()
	for i := 0; i < 2; i++ {
		in := New(fs)
		in.SetSnapshots(snap)
		mod, err := in.Import("app")
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		h, _ := mod.Dict.Get("handler")
		res, err := in.CallFunction(h, []Value{None, None})
		if err != nil {
			t.Fatalf("run %d handler: %v", i, err)
		}
		if i == 0 {
			want = Repr(res)
		} else if Repr(res) != want {
			t.Fatalf("cyclic replay diverged: %s vs %s", Repr(res), want)
		}
	}
	if s := snap.Stats(); s.Hits == 0 {
		t.Fatalf("second run should replay: %+v", s)
	}
}

// TestSnapshotProfilerHooksBypass: interpreters with import hooks must not
// record or replay (the profiler needs live execution).
func TestSnapshotProfilerHooksBypass(t *testing.T) {
	fs := snapTestImage()
	snap := NewSnapshotCache()
	snapRun(t, fs, snap) // warm the cache

	before := snap.Stats()
	in := New(fs)
	in.SetSnapshots(snap)
	seen := 0
	in.AddImportHook(hookFunc{
		before: func(string) { seen++ },
		after:  func(string, error) {},
	})
	if _, err := in.Import("app"); err != nil {
		t.Fatalf("import: %v", err)
	}
	if seen == 0 {
		t.Fatal("hooks did not observe module executions")
	}
	after := snap.Stats()
	if after.Hits != before.Hits {
		t.Fatalf("hooked interpreter consumed cache hits: %+v vs %+v", after, before)
	}
}

// TestSnapshotReplay: functions captured in a memoized import window behave
// the same after a replay — defining and calling them observes exactly what
// a run without the memo observes.
func TestSnapshotReplay(t *testing.T) {
	files := map[string]string{
		"site-packages/snaplib.py": `
def triple(x):
    return x * 3
table = [triple(0), triple(1)]
`,
	}
	src := `
import snaplib
print(snaplib.table, snaplib.triple(7))
`
	want, _ := observe(t, src, files, nil)
	snap := NewSnapshotCache()
	for round := 0; round < 3; round++ {
		got, _ := observe(t, src, files, func(in *Interp) { in.SetSnapshots(snap) })
		if got != want {
			t.Fatalf("memo round %d diverges from the run without it:\n want: %v\n got:  %v", round, want, got)
		}
	}
	if s := snap.Stats(); s.Hits == 0 {
		t.Fatalf("no round replayed the import window: %+v", s)
	}
}

// lazyLibs are the libraries the lazy-namespace cases import. lib imports
// base; alias, star and mid read lib's attributes, origin reads base's and
// picker reads holder's.
var lazyLibs = map[string]string{
	"site-packages/base.py": `
def f():
    return "base.f"
def other():
    return "base.other"
`,
	"site-packages/lib.py": `
import base
from base import f as base_f
A = 1
B = [1, 2]
def f():
    return A
g = f
table = [f, g]
class K:
    z = 3
    def m(self):
        return self.z
inst = K()
inst.w = 4
_hidden = 5
`,
	"site-packages/alias.py": `
from lib import f, table
mine = [f]
`,
	"site-packages/origin.py": `
from base import f as h
`,
	"site-packages/star.py": `
from lib import *
local = A + 1
`,
	"site-packages/mid.py": `
import lib
early = lib.A
`,
	"site-packages/holder.py": `
def x():
    return "holder.x"
class C:
    def __init__(self, fn):
        self.fn = fn
lst = [x]
items = [C(x)]
`,
	"site-packages/picker.py": `
from holder import lst, items
z = lst[0]
first = items[0]
`,
}

// TestSnapshotLazyNamespaces: a replay installs each namespace with every
// recorded name but builds a slot only on its first read. Each program must
// observe exactly the same without a memo, while it records and when it
// replays, including its result and every module's namespace order. With
// prime set, a first run imports those modules, so the recording run
// replays them and captures its own windows around their unread slots.
func TestSnapshotLazyNamespaces(t *testing.T) {
	cases := []struct {
		name  string
		prime []string
		app   string
	}{
		{name: "dir and len", app: `
def handler(event, ctx):
    import lib
    return [dir(lib), len(dir(lib)), dir(lib.K), dir(lib.inst)]
`},
		{name: "star import in a function", app: `
def handler(event, ctx):
    from lib import *
    return [A, B, f(), g is f, table[0] is f, K().m(), inst.w]
`},
		{name: "star import in a module", prime: []string{"lib"}, app: `
import star
def handler(event, ctx):
    return [star.local, star.A, star.f is star.g, star.table[1] is star.f, dir(star)]
`},
		{name: "getattr of a missing attribute", app: `
def handler(event, ctx):
    import lib
    out = []
    try:
        getattr(lib, "missing")
    except AttributeError as e:
        out.append(str(e))
    try:
        lib.K.missing
    except AttributeError as e:
        out.append(str(e))
    try:
        lib.inst.missing
    except AttributeError as e:
        out.append(str(e))
    out.append(hasattr(lib, "missing"))
    out.append(getattr(lib, "missing", "default"))
    return out
`},
		{name: "del before first read", app: `
def handler(event, ctx):
    import lib
    del lib.A
    del lib.K.z
    out = [hasattr(lib, "A"), hasattr(lib.K, "z"), dir(lib), lib.f is lib.g]
    lib.A = 7
    out.append(lib.f())
    return out
`},
		{name: "del after first read", app: `
def handler(event, ctx):
    import lib
    a = lib.A
    z = lib.K.z
    del lib.A
    del lib.K.z
    return [a, z, hasattr(lib, "A"), hasattr(lib.K, "z"), dir(lib)]
`},
		{name: "set before first read", app: `
def handler(event, ctx):
    import lib
    lib.A = 10
    lib.inst.w = 40
    return [lib.A, lib.f(), lib.inst.w, dir(lib)]
`},
		{name: "set after first read", app: `
def handler(event, ctx):
    import lib
    a = lib.A
    w = lib.inst.w
    lib.A = 10
    lib.inst.w = 40
    return [a, w, lib.A, lib.f(), lib.inst.w]
`},
		{name: "origin rebound before the alias is read", app: `
def handler(event, ctx):
    import base
    import origin
    base.f = base.other
    return [origin.h(), origin.h is base.f, origin.h is base.other]
`},
		{name: "origin rebound in a replayed window", app: `
import base
import origin
base.f = base.other
def handler(event, ctx):
    return [origin.h(), origin.h is base.f, base.f()]
`},
		{name: "setattr on a replayed class", app: `
def handler(event, ctx):
    import lib
    setattr(lib.K, "z", 30)
    setattr(lib.K, "y", 7)
    k = lib.K()
    return [k.z, k.y, k.m(), lib.inst.z, lib.inst.m(), dir(lib.K)]
`},
		{name: "aliasing", app: `
def handler(event, ctx):
    import lib
    import base
    import alias
    held = [lib.f]
    return [lib.f is lib.g, lib.table[0] is lib.f, lib.table[1] is lib.g,
            lib.base_f is base.f, held[0] is lib.g, type(lib.inst) is lib.K,
            alias.f is lib.g, alias.mine[0] is lib.f, alias.table is lib.table]
`},
		{name: "alias read after a nested capture", prime: []string{"lib"}, app: `
import mid
import lib
late = lib.g
def handler(event, ctx):
    return [late is lib.f, late is lib.table[0], mid.early, late()]
`},
		{name: "unread alias of a replayed library", prime: []string{"holder"}, app: `
def handler(event, ctx):
    import holder
    import picker
    # picker.first is a copy (it is no top-level attribute of holder, see
    # the residual contract), but what it holds keeps its identity.
    return [picker.z is holder.x, picker.first.fn is holder.x, picker.z()]
`},
		{name: "replayed module set inside the recording window", prime: []string{"lib"}, app: `
import lib
first = lib.f
lib.extra = 1
lib.A = 2
def handler(event, ctx):
    return [first is lib.g, lib.A, lib.extra, lib.table[1] is first, lib.inst.m(), dir(lib)]
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.New()
			for path, src := range lazyLibs {
				fs.Write(path, src)
			}
			fs.Write("app.py", tc.app)
			want := snapRun(t, fs, nil)

			snap := NewSnapshotCache()
			prime := New(fs)
			prime.SetSnapshots(snap)
			for _, name := range tc.prime {
				if _, err := prime.Import(name); err != nil {
					t.Fatalf("prime %s: %v", name, err)
				}
			}
			assertSameRun(t, want, snapRun(t, fs, snap), "recording run")
			before := snap.Stats()
			assertSameRun(t, want, snapRun(t, fs, snap), "replaying run")
			if after := snap.Stats(); after.Hits == before.Hits {
				t.Fatalf("replaying run never hit the memo: %+v", after)
			}
		})
	}
}

// TestSnapshotReplayMaterializesReadSlotsOnly: a replay defers every slot,
// and reading three attributes of a 1,000-attribute library builds those
// three and nothing else.
func TestSnapshotReplayMaterializesReadSlotsOnly(t *testing.T) {
	var lib strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&lib, "def f%d():\n    return %d\n", i, i)
	}
	files := map[string]string{"site-packages/biglib.py": lib.String()}
	src := "import biglib\nprint(biglib.f3() + biglib.f500() + biglib.f999())\n"
	snap := NewSnapshotCache()
	withMemo := func(in *Interp) { in.SetSnapshots(snap) }
	want, _ := observe(t, src, files, withMemo) // records
	before := snap.Stats()
	got, in := observe(t, src, files, withMemo)
	if got != want {
		t.Fatalf("replay diverges from the recording run:\n want: %v\n got:  %v", want, got)
	}
	after := snap.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("biglib was not replayed: %+v", after)
	}
	const slots = 1002 // f0..f999, __name__, __file__
	if d := after.Materialized - before.Materialized; d != 3 {
		t.Errorf("replay materialized %d slots, want 3", d)
	}
	if d := after.Deferred - before.Deferred; d != slots-3 {
		t.Errorf("replay deferred %d slots, want %d", d, slots-3)
	}
	ns := in.Modules()["biglib"].Dict
	if len(ns.t.slots) != 3 {
		t.Errorf("biglib holds %d built slots, want 3", len(ns.t.slots))
	}
	if ns.Len() != slots || len(ns.Names()) != slots {
		t.Errorf("biglib lists %d names (Len %d), want %d", len(ns.Names()), ns.Len(), slots)
	}
}

// FuzzSnapshotReplay checks the import memo's contract on arbitrary library
// code. The fuzzed source is written to site-packages/fuzzlib.py and
// imported by a fixed __main__ that then prints the repr of every fuzzlib
// attribute, in reverse dir() order (so a replay builds its lazy slots in
// an order unlike the recording's): once without a SnapshotCache, then
// twice over one shared cache, where the first run records fuzzlib's import
// window and the second replays it. All three must agree on stdout, clock,
// allocator used and peak, the error chain, and fuzzlib's namespace order.
const fuzzMain = `import fuzzlib
for n in reversed(dir(fuzzlib)):
    print(n, repr(getattr(fuzzlib, n)))
`

func FuzzSnapshotReplay(f *testing.F) {
	for _, p := range differentialPrograms {
		f.Add(p.src)
	}
	f.Add("x = [i for i in (1,2)]")
	f.Add("print((lambda a=1, b=2: a - b)())")
	f.Add("try:\n    assert 1 > 2, 'nope'\nexcept AssertionError as e:\n    print(e)")
	// Found by this fuzzer: a loop over a huge range must stop on fuel, not
	// materialize the range.
	f.Add("def f(A):\n    total=0\n    for A in range(2000000000):if total>0:0\n(f(0) ())")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		if _, err := pyparser.Parse("fuzzlib", src); err != nil {
			return // the import fails the same way with or without the memo
		}
		files := map[string]string{"site-packages/fuzzlib.py": src}
		run := func(setup func(*Interp)) string {
			o, in := observe(t, fuzzMain, files, setup)
			lib := ""
			if m, ok := in.Modules()["fuzzlib"]; ok {
				lib = strings.Join(m.Dict.Names(), ",")
			}
			return fmt.Sprintf("%v fuzzlib=%q", o, lib)
		}
		want := run(nil)
		snap := NewSnapshotCache()
		withMemo := func(in *Interp) { in.SetSnapshots(snap) }
		if got := run(withMemo); got != want {
			t.Fatalf("recording run diverges on:\n%s\n want: %s\n got:  %s", src, want, got)
		}
		if got := run(withMemo); got != want {
			t.Fatalf("replaying run diverges on:\n%s\n want: %s\n got:  %s", src, want, got)
		}
	})
}

// TestSnapshotCacheInsertBounded hammers insert from many goroutines and
// asserts the per-key FIFO cap invariant plus consistent entry/eviction
// accounting.
func TestSnapshotCacheInsertBounded(t *testing.T) {
	sc := NewSnapshotCache()
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sc.insert(&snapEntry{
					name:   fmt.Sprintf("mod%d", i%3), // few keys -> heavy eviction
					bodyFP: "fp",
					sfp:    fmt.Sprintf("state-%d-%d", g, i),
				})
			}
		}(g)
	}
	wg.Wait()

	sc.mu.RLock()
	live := int64(0)
	for key, list := range sc.m {
		if len(list) > snapEntriesPerKey {
			t.Errorf("key %q holds %d entries, cap is %d", key, len(list), snapEntriesPerKey)
		}
		seen := make(map[string]bool, len(list))
		for _, e := range list {
			if seen[e.sfp] {
				t.Errorf("key %q holds duplicate sfp %q", key, e.sfp)
			}
			seen[e.sfp] = true
		}
		live += int64(len(list))
	}
	sc.mu.RUnlock()

	st := sc.Stats()
	if st.Entries != live {
		t.Errorf("Stats.Entries = %d, live entries = %d", st.Entries, live)
	}
	// Every distinct sfp was inserted once; all but the live ones must have
	// been evicted (duplicates were rejected before accounting).
	if want := int64(goroutines*perG) - live; st.Evictions != want {
		t.Errorf("Stats.Evictions = %d, want %d (inserted %d, live %d)",
			st.Evictions, want, goroutines*perG, live)
	}
}

// crossProgram is one program for the cross-module memo check: a package
// lib with submodule lib.sub, a module lib2, a primer app that an earlier
// interpreter imports to fill the shared cache, and the target app whose
// handler the check calls.
type crossProgram struct {
	lib, sub, lib2, primer, app string
}

func (p crossProgram) image() *vfs.FS {
	fs := vfs.New()
	fs.Write("site-packages/lib/__init__.py", p.lib)
	fs.Write("site-packages/lib/sub.py", p.sub)
	fs.Write("site-packages/lib2.py", p.lib2)
	fs.Write("primer.py", p.primer)
	fs.Write("app.py", p.app)
	return fs
}

func (p crossProgram) String() string {
	return fmt.Sprintf("--- lib/__init__.py\n%s\n--- lib/sub.py\n%s\n--- lib2.py\n%s\n--- primer.py\n%s\n--- app.py\n%s",
		p.lib, p.sub, p.lib2, p.primer, p.app)
}

// crossFuel bounds each run of a cross-module program, so a fuzzed loop
// stops on fuel instead of running the default budget.
const crossFuel = 200_000

// crossDivergence runs p's app without a memo. Then one SnapshotCache is
// filled by importing p's primer and the app runs three times over it: the
// recording run and two replays. skip reports that the app or the primer
// raises without the memo; otherwise diff names the first run that departs
// from the memo-off run, and how ("" when none does).
func crossDivergence(p crossProgram) (skip bool, diff string) {
	fs, astc := p.image(), NewASTCache()
	newInterp := func(snap *SnapshotCache) *Interp {
		in := New(fs)
		in.SetASTCache(astc)
		in.SetFuel(crossFuel)
		if snap != nil {
			in.SetSnapshots(snap)
		}
		return in
	}
	want, err := trySnapRun(newInterp(nil))
	if err != nil {
		return true, ""
	}
	if _, perr := newInterp(nil).Import("primer"); perr != nil {
		return true, ""
	}
	snap := NewSnapshotCache()
	if _, perr := newInterp(snap).Import("primer"); perr != nil {
		return false, fmt.Sprintf("primer raises over the memo: %v", perr)
	}
	for _, label := range []string{"recording run", "first replay", "second replay"} {
		got, err := trySnapRun(newInterp(snap))
		if err != nil {
			return false, fmt.Sprintf("%s raises: %v", label, err)
		}
		if d := diffRuns(want, got); len(d) > 0 {
			return false, label + ": " + strings.Join(d, "\n")
		}
	}
	return false, ""
}

// crossRepros are ways a module's namespace can change after its import
// window closed that replay once got wrong.
var crossRepros = []struct {
	name string
	prog crossProgram
}{
	// The app writes an attribute of a library the primer recorded: f must
	// read the written A, not the recorded one.
	{"setattr on a replayed module", crossProgram{
		lib:    "A = 1\ndef f():\n    return A\n",
		primer: "import lib\n",
		app:    "import lib\nlib.A = 2\ndef handler(event, ctx):\n    return lib.f()\n",
	}},
	// The app's import binds lib.sub into lib after lib's window closed: f
	// must find sub among its globals.
	{"submodule bound after the parent's window", crossProgram{
		lib: "def f():\n    return sub.g()\n",
		sub: "def g():\n    return 7\n",
		app: "import lib\nimport lib.sub\ndef handler(event, ctx):\n    return lib.f()\n",
	}},
	// lib's window reads the partial lib2, so only lib2's captures lib.
	// lib.sub aliases lib's function sub, and binding lib.sub then replaces
	// that function: mine must stay the function.
	{"submodule binding replaces an aliased value", crossProgram{
		lib:  "import lib2\ndef sub():\n    return 1\n",
		sub:  "from lib import sub as mine\n",
		lib2: "import lib\nimport lib.sub\n",
		app:  "import lib2\ndef handler(event, ctx):\n    import lib\n    return [lib.sub.mine(), lib.sub.mine is lib.sub]\n",
	}},
	// lib.sub's window runs while lib is still importing and holds lib2's k,
	// which the partial lib also holds; lib then rebinds k. lib.sub's k must
	// stay lib2's, also when lib's entry installs lib, lib.sub and lib2.
	{"alias of a module still importing", crossProgram{
		lib:  "from lib2 import k\nimport lib.sub\ndef k():\n    return 2\n",
		sub:  "from lib2 import k\n",
		lib2: "def k():\n    return 1\n",
		app:  "import lib\nimport lib.sub\ndef handler(event, ctx):\n    import lib2\n    return [lib.sub.k(), lib.sub.k is lib2.k]\n",
	}},
	// lib.sub's window reads lib2, not lib, though lib holds the same k. The
	// app rebinds lib.k before importing lib.sub: k2 must stay lib2's.
	{"alias also held by a module the window did not read", crossProgram{
		lib:    "from lib2 import k\n",
		sub:    "from lib2 import k as k2\n",
		lib2:   "def k():\n    return 1\n",
		primer: "import lib\nimport lib.sub\n",
		app:    "import lib\nlib.k = 5\nimport lib.sub\ndef handler(event, ctx):\n    return [lib.sub.k2()]\n",
	}},
	// A `global` del in a function of lib, run from the app, removes lib.A
	// after lib's window closed: lib2's import must see it gone.
	{"global del after the module's window", crossProgram{
		lib:    "A = 1\ndef dela():\n    global A\n    del A\n",
		lib2:   "import lib\nHAS = hasattr(lib, 'A')\n",
		primer: "import lib\nimport lib2\n",
		app:    "import lib\nlib.dela()\nimport lib2\ndef handler(event, ctx):\n    return [lib2.HAS]\n",
	}},
}

func TestSnapshotCrossModuleRepros(t *testing.T) {
	for _, tc := range crossRepros {
		t.Run(tc.name, func(t *testing.T) {
			skip, diff := crossDivergence(tc.prog)
			if skip {
				t.Fatalf("raises without the memo:\n%s", tc.prog)
			}
			if diff != "" {
				t.Fatalf("%s\n%s", diff, tc.prog)
			}
		})
	}
}

// TestSnapshotNestedWantOnCreatedModule: lib2's entry wants lib.f, which
// lib2 imports. The app's window creates lib before it imports lib2, so the
// app's entry installs lib itself and must not carry that want, which no
// fresh interpreter could meet: the second run replays the whole app window
// in one hit.
func TestSnapshotNestedWantOnCreatedModule(t *testing.T) {
	fs := vfs.New()
	fs.Write("site-packages/lib.py", "def f():\n    return 1\n")
	fs.Write("site-packages/lib2.py", "from lib import f\n")
	fs.Write("app.py", "import lib\nimport lib2\ndef handler(event, ctx):\n    return lib2.f()\n")
	want := snapRun(t, fs, nil)
	snap := NewSnapshotCache()
	assertSameRun(t, want, snapRun(t, fs, snap), "recording run")
	before := snap.Stats()
	assertSameRun(t, want, snapRun(t, fs, snap), "replaying run")
	after := snap.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 0 {
		t.Errorf("replaying run: %d hits and %d misses, want the app window's one hit", hits, misses)
	}
}

// Statement menus for genCrossProgram. Each entry is a top-level statement
// (or a short run of them); every "{n}" becomes a fresh small integer.
var (
	crossLibStmts = []string{
		"import lib.sub",
		"from lib.sub import h as hh",
		"from . import sub",
		"import lib2",
		"import lib2\nlib2.Z = {n}",
		"def g2():\n    return sub.g()",
		"def getx():\n    return sub.X",
		"B = A + {n}",
		"print('lib', A)",
		"remote_call('lib', 'init', A)",
		"sub = {n}",
		"def sub():\n    return {n}",
		"import lib\nlib.C = {n}",
		"A = {n}",
		"from lib2 import k",
		"from lib2 import k\nimport lib.sub\ndef k():\n    return {n}",
		"def dela():\n    global A\n    del A",
	}
	crossSubStmts = []string{
		"import lib",
		"import lib2",
		"import lib\nlib.A = {n}",
		"import lib\nlib.extra = {n}",
		"import lib2\nlib2.Z = {n}",
		"from lib import f as lf",
		"from lib import sub as mine",
		"import lib.sub",
		"print('sub', X)",
		"remote_call('sub', 'init', X)",
		"def bump():\n    import lib\n    lib.A = {n}",
		"X = {n}",
		"from lib2 import k as k2",
	}
	crossLib2Stmts = []string{
		"import lib",
		"import lib.sub",
		"import lib\nlib.A = {n}",
		"import lib.sub\nlib.sub.X = {n}",
		"import lib\nlib.extra = {n}",
		"from lib import f as ff\nW = ff()",
		"from lib.sub import h as hh\nV = hh()",
		"import lib\nlib.seta({n})",
		"import lib\nif hasattr(lib, 'extra'):\n    del lib.extra",
		"import lib\nsetattr(lib, 'A', {n})",
		"import lib.sub\nlib.sub.bump = None",
		"print('lib2', Y)",
		"remote_call('lib2', 'init', Y)",
		"def k2():\n    import lib.sub\n    return lib.sub.X",
		"import lib\nHAS = hasattr(lib, 'A')",
	}
	crossPrimerStmts = []string{
		"import lib",
		"import lib.sub",
		"import lib2",
		"from lib.sub import h",
		"import lib\nlib.A = {n}",
	}
	crossAppStmts = []string{
		"import lib",
		"import lib.sub",
		"import lib2",
		"import lib\nlib.A = {n}",
		"import lib.sub\nlib.sub.X = {n}",
		"import lib\nlib.extra = {n}",
		"import lib2\nlib2.Y = {n}",
		"from lib import f as ff",
		"from lib.sub import h as hh",
		"import lib\nlib.seta({n})",
		"import lib\nsetattr(lib, 'A', {n})",
		"import lib\nif hasattr(lib, 'extra'):\n    del lib.extra",
		"import lib.sub\nlib.sub.bump()",
		"def load():\n    import lib.sub\n    return lib.sub.X\nloaded = load()",
		"import lib2\nk = lib2.k()",
		"import lib\nlib.k = {n}",
		"import lib\nif hasattr(lib, 'dela'):\n    lib.dela()",
	}
	// crossProbes are the handler's reads; the app's handler returns a
	// list of some of them.
	crossProbes = []string{
		"lib.A",
		"lib.f()",
		"call(lib, 'g2')",
		"call(lib, 'getx')",
		"getattr(lib, 'extra', None)",
		"getattr(lib, 'B', None)",
		"getattr(lib, 'C', None)",
		"dir(lib)",
		"call(getattr(lib, 'sub', None), 'g')",
		"getattr(getattr(lib, 'sub', None), 'X', None)",
		"getattr(getattr(lib, 'sub', None), 'mine', None)",
		"lib2.Y",
		"lib2.Z",
		"lib2.k()",
		"getattr(lib2, 'W', None)",
		"getattr(lib2, 'HAS', None)",
		"dir(lib2)",
		"call(getattr(lib, 'sub', None), 'k2')",
		"getattr(getattr(lib, 'sub', None), 'k2', None) is lib2.k",
	}
)

// genCrossProgram draws one cross-module program from rng. Each module
// first defines the names the others read, so most programs run; then come
// random imports (repeated, nested in a package or a function, cyclic
// through lib.sub), `from … import … as …` aliases, and writes into other
// modules: setattr and delattr, calls that rebind or delete lib's A through
// a `global` statement, and submodule bindings. lib and lib.sub may both
// hold lib2's k, which lib may rebind after importing lib.sub.
func genCrossProgram(rng *rand.Rand) crossProgram {
	fill := func(s string) string {
		for strings.Contains(s, "{n}") {
			s = strings.Replace(s, "{n}", fmt.Sprint(rng.Intn(90)+10), 1)
		}
		return s
	}
	body := func(head string, menu []string, min, max int) string {
		lines := []string{fill(head)}
		for i := min + rng.Intn(max-min+1); i > 0; i-- {
			lines = append(lines, fill(menu[rng.Intn(len(menu))]))
		}
		return strings.Join(lines, "\n") + "\n"
	}
	libF := []string{"return A", "return sub.g()", "return A + sub.X"}[rng.Intn(3)]
	p := crossProgram{
		lib: body("A = {n}\ndef f():\n    "+libF+"\ndef seta(v):\n    global A\n    A = v",
			crossLibStmts, 0, 4),
		sub:    body("X = {n}\ndef g():\n    return X\ndef h():\n    return X + 1", crossSubStmts, 0, 4),
		lib2:   body("Y = {n}\nZ = {n}\ndef k():\n    return Y + Z", crossLib2Stmts, 0, 4),
		primer: body("", crossPrimerStmts, 0, 3),
	}
	app := body("def call(mod, name):\n    fn = getattr(mod, name, None)\n    if fn is None:\n        return None\n    return fn()",
		crossAppStmts, 1, 5)
	probes := []string{}
	for _, pr := range crossProbes {
		if rng.Intn(2) == 0 {
			probes = append(probes, pr)
		}
	}
	for _, alias := range []string{"ff()", "hh()", "loaded", "k"} {
		if name := strings.TrimSuffix(alias, "()"); strings.Contains(app, "as "+name+"\n") ||
			strings.Contains(app, name+" = ") {
			probes = append(probes, alias)
		}
	}
	p.app = app + "def handler(event, ctx):\n    import lib\n    import lib2\n" +
		"    return [" + strings.Join(probes, ", ") + "]\n"
	return p
}

// crossSweepSeeds is how many generated programs the tier-1 sweep checks.
const crossSweepSeeds = 2000

// TestSnapshotCrossModuleSweep runs crossDivergence over generated
// programs, seeded 0 to crossSweepSeeds-1, and fails on any divergence.
func TestSnapshotCrossModuleSweep(t *testing.T) {
	ran, diverged := 0, 0
	for seed := int64(0); seed < crossSweepSeeds; seed++ {
		p := genCrossProgram(rand.New(rand.NewSource(seed)))
		skip, diff := crossDivergence(p)
		if skip {
			continue
		}
		ran++
		if diff != "" {
			if diverged++; diverged <= 3 {
				t.Errorf("seed %d: %s\n%s", seed, diff, p)
			}
		}
	}
	t.Logf("%d programs, %d ran without error with the memo off, %d diverged", crossSweepSeeds, ran, diverged)
	if diverged > 3 {
		t.Errorf("%d more programs diverged", diverged-3)
	}
	if ran < crossSweepSeeds/2 {
		t.Errorf("only %d of %d programs ran without error with the memo off", ran, crossSweepSeeds)
	}
}

// FuzzSnapshotCrossModule checks the import memo across modules on fuzzed
// sources for lib/__init__.py, lib/sub.py, lib2.py, the primer and the
// target app (see crossDivergence). It is seeded with crossRepros and with
// generated programs.
func FuzzSnapshotCrossModule(f *testing.F) {
	for _, tc := range crossRepros {
		p := tc.prog
		f.Add(p.lib, p.sub, p.lib2, p.primer, p.app)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		p := genCrossProgram(rng)
		f.Add(p.lib, p.sub, p.lib2, p.primer, p.app)
	}
	f.Fuzz(func(t *testing.T, lib, sub, lib2, primer, app string) {
		if len(lib)+len(sub)+len(lib2)+len(primer)+len(app) > 8192 {
			return
		}
		p := crossProgram{lib: lib, sub: sub, lib2: lib2, primer: primer, app: app}
		if _, diff := crossDivergence(p); diff != "" {
			t.Fatalf("%s\n%s", diff, p)
		}
	})
}

// TestSnapshotNoEntryReadsPoison: the app writes the package lib, which
// poisons lib's sfp, and then imports lib2, which reads lib. No interpreter
// can match that poison, so lib2's window inserts no entry, and lib2's sfp
// becomes a poison too, so the windows that read lib2 are refused in turn.
func TestSnapshotNoEntryReadsPoison(t *testing.T) {
	fs := vfs.New()
	fs.Write("site-packages/lib/__init__.py", "A = 1\n")
	fs.Write("site-packages/lib2.py", "import lib\nB = lib.A\n")
	fs.Write("app.py", "import lib\nlib.A = 2\nimport lib2\ndef handler(event, ctx):\n    return lib2.B\n")
	want := snapRun(t, fs, nil)
	snap := NewSnapshotCache()
	in := New(fs)
	in.SetSnapshots(snap)
	got, err := trySnapRun(in)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, want, got, "recording run")
	for key := range snap.m {
		if name, _, _ := strings.Cut(key, "\x00"); name == "lib2" {
			t.Errorf("an entry was inserted for lib2, whose window read lib's poisoned state")
		}
	}
	if !isPoison(in.sfp["lib2"]) {
		t.Errorf("lib2's sfp is %q, want a poison", in.sfp["lib2"])
	}
}

// TestSnapshotVolatileGlobalWrites: lib is volatile, as a Delta Debugging
// candidate is, and its body calls bump, which writes lib's N through
// `global`. That write needs no mark: lib's import already keeps every open
// window from capturing. lib3's window calls bump again, through a list the
// app filled, and that write must still keep lib3's window from capturing,
// since a replay of it would not bump N.
func TestSnapshotVolatileGlobalWrites(t *testing.T) {
	fs := vfs.New()
	fs.Write("site-packages/lib.py", "N = 0\ndef bump():\n    global N\n    N = N + 1\n    return N\nbump()\n")
	fs.Write("site-packages/hub.py", "hooks = []\n")
	fs.Write("site-packages/lib3.py", "import hub\nR = hub.hooks[0]()\n")
	fs.Write("app.py", "import hub\nimport lib\nhub.hooks.append(lib.bump)\nimport lib3\ndef handler(event, ctx):\n    return [lib.N, lib3.R]\n")
	newInterp := func(snap *SnapshotCache) *Interp {
		in := New(fs)
		in.SetVolatile("lib")
		if snap != nil {
			in.SetSnapshots(snap)
		}
		return in
	}
	want, err := trySnapRun(newInterp(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want.result != "[2, 2]" {
		t.Fatalf("memo-off run returns %s, want [2, 2]", want.result)
	}
	snap := NewSnapshotCache()
	for _, label := range []string{"recording run", "replaying run"} {
		got, err := trySnapRun(newInterp(snap))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertSameRun(t, want, got, label)
	}
	if st := snap.Stats(); st.Hits == 0 {
		t.Errorf("the replaying run never hit the memo: %+v", st)
	}
	for key := range snap.m {
		if name, _, _ := strings.Cut(key, "\x00"); name == "lib3" {
			t.Errorf("an entry was inserted for lib3, whose window wrote lib through bump")
		}
	}
}
