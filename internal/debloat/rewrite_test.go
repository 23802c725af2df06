package debloat

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/appcorpus"
	"repro/internal/profiler"
	"repro/internal/pylang"
	"repro/internal/pyparser"
	"repro/internal/pyruntime"
)

// refBound lists the module attributes a top-level statement binds, read
// off the documented rules: a def or class name, the name targets of an
// assignment, and each alias of an import or from-import (none for a star
// import).
func refBound(s pylang.Stmt) []string {
	var out []string
	switch v := s.(type) {
	case *pylang.DefStmt:
		out = append(out, v.Name)
	case *pylang.ClassStmt:
		out = append(out, v.Name)
	case *pylang.AssignStmt:
		for _, t := range v.Targets {
			if n, ok := t.(*pylang.NameExpr); ok {
				out = append(out, n.Name)
			}
		}
	case *pylang.ImportStmt:
		for _, a := range v.Names {
			out = append(out, a.Bound())
		}
	case *pylang.FromImportStmt:
		for _, a := range v.Names {
			if a.AsName != "" {
				out = append(out, a.AsName)
			} else {
				out = append(out, a.Name)
			}
		}
	}
	return out
}

// refWithout is the reference attribute-granularity rewrite: def and class
// statements whose name is removed are dropped, an assignment is dropped
// only when every name target is removed, import and from-import aliases
// are dropped one by one (the statement goes with its last alias), and star
// imports and everything else stay untouched.
func refWithout(body []pylang.Stmt, removed map[string]bool) []pylang.Stmt {
	var out []pylang.Stmt
	for _, s := range body {
		switch v := s.(type) {
		case *pylang.DefStmt:
			if removed[v.Name] {
				continue
			}
		case *pylang.ClassStmt:
			if removed[v.Name] {
				continue
			}
		case *pylang.AssignStmt:
			names := refBound(v)
			gone := 0
			for _, n := range names {
				if removed[n] {
					gone++
				}
			}
			if len(names) > 0 && gone == len(names) {
				continue
			}
		case *pylang.ImportStmt:
			var kept []pylang.Alias
			for _, a := range v.Names {
				if !removed[a.Bound()] {
					kept = append(kept, a)
				}
			}
			if len(kept) == 0 {
				continue
			}
			if len(kept) < len(v.Names) {
				s = &pylang.ImportStmt{Pos: v.Pos, Names: kept}
			}
		case *pylang.FromImportStmt:
			if v.Star {
				break
			}
			var kept []pylang.Alias
			for i, a := range v.Names {
				if !removed[refBound(v)[i]] {
					kept = append(kept, a)
				}
			}
			if len(kept) == 0 {
				continue
			}
			if len(kept) < len(v.Names) {
				s = &pylang.FromImportStmt{Pos: v.Pos, Level: v.Level, Module: v.Module, Names: kept}
			}
		}
		out = append(out, s)
	}
	return out
}

// refKeepStmts is the reference statement-granularity rewrite: a statement
// that binds a name, none of them magic, is a component and stays only when
// its index is in keep; every other statement stays.
func refKeepStmts(body []pylang.Stmt, keep map[int]bool) []pylang.Stmt {
	var out []pylang.Stmt
	for i, s := range body {
		component := len(refBound(s)) > 0
		for _, n := range refBound(s) {
			if pyruntime.MagicAttrs[n] {
				component = false
			}
		}
		if !component || keep[i] {
			out = append(out, s)
		}
	}
	return out
}

// keptSets returns the seeded kept sets tried per module: none, all, and
// random ones at three densities.
func keptSets(rng *rand.Rand, n int) [][]bool {
	sets := [][]bool{make([]bool, n), make([]bool, n)}
	for i := range sets[1] {
		sets[1][i] = true
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.5} {
		kept := make([]bool, n)
		for i := range kept {
			kept[i] = rng.Float64() < p
		}
		sets = append(sets, kept)
	}
	return sets
}

// ddTargets returns each distinct library module DD targets over the
// corpus (the top-K profiled modules with site-packages source), parsed.
func ddTargets(t *testing.T) []*pylang.Module {
	t.Helper()
	var out []*pylang.Module
	seen := map[string]bool{}
	for _, name := range appcorpus.Names() {
		app := appcorpus.MustBuild(name)
		prof, err := profiler.Run(app.Image, app.Entry, profiler.Options{Scoring: profiler.Combined})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mp := range prof.TopK(DefaultConfig().K) {
			path, ok := moduleFile(app, mp.Name)
			if !ok {
				continue
			}
			src, err := app.Image.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			if seen[path+"\x00"+src] {
				continue
			}
			seen[path+"\x00"+src] = true
			ast, err := pyparser.Parse(mp.Name, src)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			out = append(out, ast)
		}
	}
	return out
}

// edgeSrc holds the statement shapes the corpus libraries lack: chained,
// tuple and attribute assignment targets, a chained assignment with a magic
// name, multi-alias and dotted imports, and star and relative imports.
const edgeSrc = `import os, sys as system, json
import os.path
from m import a, b as bb, c
from n import *
from . import rel
x = y = 1
p, q = 1, 2
obj.attr = 3
__version__ = ver = "1.0"
z = x
def f():
    return 1
class K:
    pass
if x:
    w = 2
`

// TestProbeBodiesMatchReference builds DD probe bodies for every library
// module DD targets in the corpus, from seeded kept sets that include none
// and all, and checks that each prints the same source as the reference
// rewrite of the documented rules. Candidates are the bound non-magic names
// minus a random quarter, which stand in for the call-graph-protected names
// a probe must never remove. The statement arm is checked the same way.
// edgeSrc runs 64 times, each with fresh random candidates.
func TestProbeBodiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mods := ddTargets(t)
	if len(mods) < 50 {
		t.Fatalf("only %d DD target modules in the corpus", len(mods))
	}
	edge, err := pyparser.Parse("edge", edgeSrc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		mods = append(mods, edge)
	}
	partialImports := 0
	for _, mod := range mods {
		var candidates []string
		seen := map[string]bool{}
		for _, s := range mod.Body {
			for _, n := range refBound(s) {
				if !seen[n] && !pyruntime.MagicAttrs[n] && rng.Intn(4) > 0 {
					candidates = append(candidates, n)
				}
				seen[n] = true
			}
		}
		idx := newProbeIndex(mod.Body, candidates)
		for _, kept := range keptSets(rng, len(candidates)) {
			removed := map[string]bool{}
			for i, c := range candidates {
				if !kept[i] {
					removed[c] = true
				}
			}
			got := pylang.Print(&pylang.Module{Name: mod.Name, Body: idx.build(kept)})
			want := pylang.Print(&pylang.Module{Name: mod.Name, Body: refWithout(mod.Body, removed)})
			if got != want {
				t.Fatalf("%s: attribute probe body differs from the reference (%d of %d candidates kept):\n%s",
					mod.Name, len(candidates)-len(removed), len(candidates), firstLineDiff(want, got))
			}
			for _, s := range idx.build(kept) {
				if imp, ok := s.(*pylang.FromImportStmt); ok && !containsStmt(mod.Body, imp) {
					partialImports++
				}
			}
		}

		comp, stmts := stmtComponents(mod.Body)
		for _, kept := range keptSets(rng, len(stmts)) {
			keep := map[int]bool{}
			for c, i := range stmts {
				if kept[c] {
					keep[i] = true
				}
			}
			got := pylang.Print(&pylang.Module{Name: mod.Name, Body: keepStmts(mod.Body, comp, kept)})
			want := pylang.Print(&pylang.Module{Name: mod.Name, Body: refKeepStmts(mod.Body, keep)})
			if got != want {
				t.Fatalf("%s: statement probe body differs from the reference:\n%s", mod.Name, firstLineDiff(want, got))
			}
		}
	}
	if partialImports == 0 {
		t.Error("no probe dropped part of a from-import; the alias rule went unchecked")
	}
}

func containsStmt(body []pylang.Stmt, s pylang.Stmt) bool {
	for _, b := range body {
		if b == s {
			return true
		}
	}
	return false
}

// firstLineDiff names the first line where two printed bodies differ.
func firstLineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "equal"
}
