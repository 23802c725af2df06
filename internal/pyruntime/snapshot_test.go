package pyruntime

import (
	"fmt"
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
	return snapRunResult{
		out:     in.OutputString(),
		clock:   int64(in.Clock.Now()),
		remote:  in.RemoteLog,
		fuel:    in.fuel,
		idCount: in.idCounter,
		result:  Repr(res),
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

// FuzzSnapshotReplay checks the import memo's contract on arbitrary library
// code. The fuzzed source is written to site-packages/fuzzlib.py and
// imported by a fixed __main__: once without a SnapshotCache, then twice
// over one shared cache, where the first run records fuzzlib's import
// window and the second replays it. All three must agree on stdout, clock,
// allocator used and peak, the error chain, and fuzzlib's namespace order.
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
			o, in := observe(t, "import fuzzlib\n", files, setup)
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
