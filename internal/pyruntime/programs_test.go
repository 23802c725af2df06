package pyruntime

// Pinned observations of whole programs. The AST walker is the only engine,
// so these tests pin every simulated observable — stdout, virtual clock,
// simulated allocator (used and peak), the full exception chain, namespace
// insertion order and the remote-call journal — to fixed values. The values
// for differentialPrograms are the ones the walker and the former compiled
// engine agreed on; a change to any of them changes what the debloater's
// oracle sees.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pyparser"
	"repro/internal/vfs"
)

// runObs is everything a program run can influence, rendered to one
// comparable value.
type runObs struct {
	stdout  string
	clockNS int64
	used    int64
	peak    int64
	errs    string
	names   string
	remote  string
}

func (o runObs) String() string {
	return fmt.Sprintf("stdout=%q clock=%d used=%d peak=%d err=%q names=%q remote=%q",
		o.stdout, o.clockNS, o.used, o.peak, o.errs, o.names, o.remote)
}

// renderChain renders a PyErr with its full implicit-cause chain.
func renderChain(err *PyErr) string {
	if err == nil {
		return ""
	}
	var b strings.Builder
	for depth := 0; err != nil && depth < 64; depth++ {
		if depth > 0 {
			b.WriteString(" <- ")
		}
		fmt.Fprintf(&b, "%s: %s @%s in %s", err.ClassName(), err.Message(), err.Pos, err.Where)
		err = err.Cause
	}
	return b.String()
}

// observe executes src as __main__ over files in a fresh interpreter with a
// fuel of 200 000 statements, which keeps arbitrary inputs terminating, and
// returns the rendered observation and the interpreter. setup, when non-nil,
// configures the interpreter (shared caches) before the run.
func observe(t testing.TB, src string, files map[string]string, setup func(*Interp)) (runObs, *Interp) {
	t.Helper()
	fs := vfs.New()
	for path, content := range files {
		fs.Write(path, content)
	}
	in := New(fs)
	if setup != nil {
		setup(in)
	}
	in.SetFuel(200_000)
	parsed, err := pyparser.Parse("__main__", src)
	if err != nil {
		return runObs{errs: "parse: " + err.Error()}, in
	}
	mod := &ModuleV{Name: "__main__", Dict: NewNamespace()}
	mod.Dict.Set("__name__", StrV("__main__"))
	perr := in.RunModule(mod, parsed.Body)
	return runObs{
		stdout:  in.OutputString(),
		clockNS: int64(in.Clock.Now()),
		used:    in.Alloc.Used(),
		peak:    in.Alloc.Peak(),
		errs:    renderChain(perr),
		names:   strings.Join(mod.Dict.Names(), ","),
		remote:  fmt.Sprintf("%v", in.RemoteLog),
	}, in
}

// budgetErr is the error chain of a run stopped by its fuel.
const budgetErr = "RuntimeError: fatal: statement budget exhausted @0:0 in "

var differentialPrograms = []struct {
	src  string
	want runObs
}{
	// Functions: locals, defaults, kwargs, for/else over a range, early break.
	{`
def f(a, b=10, c=2):
    total = 0
    for i in range(a):
        total = total + i * b
        if total > 100:
            break
    else:
        total = total + c
    return total
print(f(3), f(10), f(b=1, a=4), f(2, c=99))
`, runObs{stdout: "32 150 8 109\n", clockNS: 49600, used: 1744, peak: 1744, names: "__name__,f", remote: "[]"}},
	// Closures, nested defs, global declarations.
	{`
counter = 0
def make_adder(n):
    def add(x):
        return x + n
    return add
def bump():
    global counter
    counter = counter + 1
a = make_adder(5)
bump(); bump()
print(a(10), counter)
`, runObs{stdout: "15 2\n", clockNS: 11200, used: 5056, peak: 5056, names: "__name__,counter,make_adder,bump,a", remote: "[]"}},
	// Classes, methods, instances, attribute errors caught and chained.
	{`
class Greeter:
    prefix = "hi"
    def __init__(self, name):
        self.name = name
    def greet(self):
        return self.prefix + " " + self.name
g = Greeter("bob")
print(g.greet())
try:
    g.missing
except AttributeError as e:
    print("caught", e)
`, runObs{stdout: "hi bob\ncaught AttributeError('\\'Greeter\\' object has no attribute \\'missing\\'')\n", clockNS: 8800, used: 6432, peak: 6432, names: "__name__,Greeter,g,e", remote: "[]"}},
	// Exception chains: raise inside except, finally interplay.
	{`
def boom():
    try:
        [] [1]
    except IndexError:
        raise ValueError("secondary")
    finally:
        print("cleanup")
try:
    boom()
except ValueError as e:
    print("got", e)
`, runObs{stdout: "cleanup\ngot ValueError('secondary')\n", clockNS: 6400, used: 1744, peak: 1744, names: "__name__,boom,e", remote: "[]"}},
	// Uncaught error with a cause chain.
	{`
try:
    {}["k"]
except KeyError:
    1 // 0
`, runObs{clockNS: 2400, errs: "ZeroDivisionError: integer division or modulo by zero @0:0 in  <- KeyError: 'k' @0:0 in ", names: "__name__", remote: "[]"}},
	// String/dict/tuple iteration, containment, slicing, formatting.
	{`
s = "hello"
acc = []
for ch in s:
    acc.append(ch.upper())
d = {"a": 1, "b": 2}
for k in d:
    acc.append(k)
t = (1, 2, 3)
print("-".join(acc), s[1:4], t[1:] if False else t, "l" in s, "%s=%d" % ("x", 7))
`, runObs{stdout: "H-E-L-L-O-a-b ell (1, 2, 3) True x=7\n", clockNS: 16800, used: 440, peak: 440, names: "__name__,s,acc,ch,d,k,t", remote: "[]"}},
	// Augmented assignment through attributes and indexes (double-eval).
	{`
class Box:
    pass
b = Box()
b.v = 1
b.v += 2
xs = [1, 2, 3]
xs[1] += 10
print(b.v, xs)
`, runObs{stdout: "3 [1, 12, 3]\n", clockNS: 6400, used: 3312, peak: 3312, names: "__name__,Box,b,xs", remote: "[]"}},
	// Deep-ish recursion plus small-int identity.
	{`
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
x = 256
y = 255 + 1
print(fib(12), x is y, x == y)
`, runObs{stdout: "144 True True\n", clockNS: 747200, used: 1812, peak: 1812, names: "__name__,fib,x,y", remote: "[]"}},
	// del + name errors, lambda defaults and conditional expressions.
	{`
x = 5
del x
try:
    print(x)
except NameError as e:
    print("gone:", e)
f = lambda a, b=3: a * b if a > 0 else -a
print(f(2), f(-4, 10))
`, runObs{stdout: "gone: NameError('name \\'x\\' is not defined')\n6 4\n", clockNS: 5600, used: 1628, peak: 1628, names: "__name__,e,f", remote: "[]"}},
	// Duplicate parameters: the last positional binding wins.
	{`
def dup(a, a):
    return a
print(dup(1, 2))
`, runObs{stdout: "2\n", clockNS: 2400, used: 1624, peak: 1624, names: "__name__,dup", remote: "[]"}},
	// Recursion limit: error class, message, and virtual clock.
	{`
def down(n):
    return down(n + 1)
try:
    down(0)
except RecursionError as e:
    print("depth:", e)
`, runObs{stdout: "depth: RecursionError('maximum recursion depth exceeded')\n", clockNS: 163200, used: 1688, peak: 1688, names: "__name__,down,e", remote: "[]"}},
	// Fuel exhaustion dies on a fixed statement.
	{`
i = 0
while True:
    i = i + 1
`, runObs{clockNS: 160_000_000, used: 64, peak: 64, errs: budgetErr, names: "__name__,i", remote: "[]"}},
}

func TestProgramObservations(t *testing.T) {
	for i, p := range differentialPrograms {
		t.Run(fmt.Sprintf("p%02d", i), func(t *testing.T) {
			if got, _ := observe(t, p.src, nil, nil); got != p.want {
				t.Errorf("observation changed on:\n%s\n got:  %v\n want: %v", p.src, got, p.want)
			}
		})
	}
}

// TestImportsOverSharedASTCache: a program that imports a package observes
// the same whether each run parses privately or reuses a parse cache shared
// across interpreters, as the debloater's oracle runs do. The second image
// holds the same paths with other content, as a debloated image does, and
// must never reuse the first image's parse.
func TestImportsOverSharedASTCache(t *testing.T) {
	core := `
VERSION = "%s"
def work(n):
    out = []
    for i in range(n):
        out.append(i * %s)
    return out
`
	image := func(version, factor string) map[string]string {
		return map[string]string{
			"site-packages/libfoo/__init__.py": `
from libfoo.core import work, VERSION
value = work(3)
`,
			"site-packages/libfoo/core.py": fmt.Sprintf(core, version, factor),
		}
	}
	src := `
import libfoo
from libfoo.core import work
print(libfoo.value, libfoo.VERSION, work(2))
try:
    import nosuchmod
except ModuleNotFoundError as e:
    print("missing:", e)
`
	missing := "missing: ModuleNotFoundError('No module named \\'nosuchmod\\'')\n"
	inputs := []struct {
		files map[string]string
		want  runObs
	}{
		{image("1.2", "i"), runObs{stdout: "[0, 1, 4] 1.2 [0, 1]\n" + missing,
			clockNS: 20800, used: 10296, peak: 10296, names: "__name__,libfoo,work,e", remote: "[]"}},
		{image("2.0", "10"), runObs{stdout: "[0, 10, 20] 2.0 [0, 10]\n" + missing,
			clockNS: 20800, used: 10296, peak: 10296, names: "__name__,libfoo,work,e", remote: "[]"}},
	}
	for i, c := range inputs {
		if got, _ := observe(t, src, c.files, nil); got != c.want {
			t.Fatalf("image %d, private parse cache:\n got:  %v\n want: %v", i, got, c.want)
		}
	}
	shared := NewASTCache()
	for round := 0; round < 3; round++ {
		for i, c := range inputs {
			if got, _ := observe(t, src, c.files, func(in *Interp) { in.SetASTCache(shared) }); got != c.want {
				t.Fatalf("image %d, shared parse cache, round %d:\n got:  %v\n want: %v", i, round, got, c.want)
			}
		}
	}
}

// TestForLoopIterationIsLazy: fuel, not the Go heap, stops a loop over a
// huge range. Materializing range(2_000_000_000) up front would ask Go for
// 32 GB before the first iteration — a fatal out-of-memory that trapFatal
// cannot catch — wherever the loop runs. Loops over strings keep their
// observations too.
func TestForLoopIterationIsLazy(t *testing.T) {
	const spin = "for i in range(2000000000):\n    pass\n"
	cases := []struct {
		name  string
		src   string
		files map[string]string
		want  runObs
	}{
		{"module", spin, nil,
			runObs{clockNS: 160_000_000, used: 64, peak: 64, errs: budgetErr, names: "__name__,i", remote: "[]"}},
		{"function", "def spin():\n    for i in range(2000000000):\n        pass\nspin()\n", nil,
			runObs{clockNS: 160_000_000, used: 1624, peak: 1624, errs: budgetErr, names: "__name__,spin", remote: "[]"}},
		{"library", "import spinlib\n", map[string]string{"site-packages/spinlib.py": spin},
			runObs{clockNS: 160_000_000, used: 4064, peak: 4064, errs: budgetErr, names: "__name__", remote: "[]"}},
		{"string", "out = []\nfor c in \"héllo, wörld ☃\":\n    if c == \" \":\n        continue\n    out.append(c.upper())\nelse:\n    out.append(\"!\")\nprint(\"\".join(out), len(out))\n", nil,
			runObs{stdout: "HÉLLO,WÖRLD☃! 13\n", clockNS: 36800, used: 232, peak: 232, names: "__name__,out,c", remote: "[]"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, _ := observe(t, c.src, c.files, nil)
			runtime.ReadMemStats(&after)
			if got != c.want {
				t.Errorf("got:  %v\nwant: %v", got, c.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
				t.Errorf("the run allocated %d MB of Go heap; fuel must stop the loop first", grew>>20)
			}
		})
	}
}
