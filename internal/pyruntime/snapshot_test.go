package pyruntime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

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
	mod, err := in.Import("app")
	if err != nil {
		t.Fatalf("import app: %v", err)
	}
	h, _ := mod.Dict.Get("handler")
	res, err := in.CallFunction(h, []Value{IntV(10), None})
	if err != nil {
		t.Fatalf("handler: %v", err)
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
	}
}

func assertSameRun(t *testing.T, want, got snapRunResult, label string) {
	t.Helper()
	if got.out != want.out {
		t.Errorf("%s: stdout diverged: %q vs %q", label, got.out, want.out)
	}
	if got.clock != want.clock {
		t.Errorf("%s: clock diverged: %d vs %d", label, got.clock, want.clock)
	}
	if got.fuel != want.fuel {
		t.Errorf("%s: fuel diverged: %d vs %d", label, got.fuel, want.fuel)
	}
	if got.idCount != want.idCount {
		t.Errorf("%s: id counter diverged: %d vs %d", label, got.idCount, want.idCount)
	}
	if got.result != want.result {
		t.Errorf("%s: result diverged: %s vs %s", label, got.result, want.result)
	}
	if got.mods != want.mods {
		t.Errorf("%s: module namespaces diverged:\n%s\nvs\n%s", label, got.mods, want.mods)
	}
	if len(got.remote) != len(want.remote) {
		t.Fatalf("%s: remote journal length diverged: %d vs %d", label, len(got.remote), len(want.remote))
	}
	for i := range got.remote {
		if got.remote[i] != want.remote[i] {
			t.Errorf("%s: remote[%d] diverged: %+v vs %+v", label, i, got.remote[i], want.remote[i])
		}
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
	if len(ns.m) != 3 {
		t.Errorf("biglib holds %d built slots, want 3", len(ns.m))
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
