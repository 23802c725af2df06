// Package debloat implements λ-trim's debloater (§5.3 and §6 of the paper):
// attribute-granularity Delta Debugging over the __init__ files of the
// top-K modules selected by the profiler, validated by an oracle that
// re-runs the application on its test cases and compares observable
// behaviour (stdout, handler result, and the journal of external calls).
package debloat

import (
	"sort"

	"repro/internal/pylang"
	"repro/internal/pyruntime"
)

// Granularity selects the DD component granularity. The paper argues for
// attribute granularity (§6.1): compared to statements it is coarser for
// def/class (whole definitions) but finer for "from m import a, b, c",
// where individual names can be dropped. Statement granularity is kept as
// an ablation arm.
type Granularity int

const (
	// AttrGranularity removes module attributes (the paper's choice).
	AttrGranularity Granularity = iota
	// StmtGranularity removes whole top-level statements (ablation).
	StmtGranularity
)

func (g Granularity) String() string {
	if g == StmtGranularity {
		return "statement"
	}
	return "attribute"
}

// providers maps each module attribute to the indices of top-level
// statements that bind it. Statements that bind no attribute (bare
// expressions, control flow) are never removed at attribute granularity.
func providers(body []pylang.Stmt) map[string][]int {
	out := make(map[string][]int)
	add := func(name string, idx int) {
		out[name] = append(out[name], idx)
	}
	for i, s := range body {
		for _, name := range pylang.BoundNames(s) {
			add(name, i)
		}
	}
	return out
}

// probeIndex indexes a module body for building DD probe bodies: for each
// top-level statement, the candidate index of every name it binds, in
// pylang.BoundNames order. It is computed once per module, so each probe
// builds its body from a kept bitmap over the candidates without a map or a
// BoundNames call.
type probeIndex struct {
	body []pylang.Stmt
	// cands[i] holds statement i's candidate indices, -1 for a bound name
	// that is not a candidate. It is nil when the statement is kept whatever
	// is removed: it binds no candidate, or it is a def, class or
	// assignment that binds a name that is not a candidate.
	cands [][]int

	// The probes' scratch: the kept bitmap and the body buffer that every
	// probe of the module reuses (see probe).
	kept []bool
	out  []pylang.Stmt
}

// newProbeIndex indexes body against the DD candidates.
func newProbeIndex(body []pylang.Stmt, candidates []string) *probeIndex {
	index := make(map[string]int, len(candidates))
	for i, c := range candidates {
		index[c] = i
	}
	p := &probeIndex{
		body:  body,
		cands: make([][]int, len(body)),
		kept:  make([]bool, len(candidates)),
		out:   make([]pylang.Stmt, 0, len(body)),
	}
	for i, s := range body {
		names := pylang.BoundNames(s)
		cs := make([]int, len(names))
		some, all := false, true
		for j, n := range names {
			c, ok := index[n]
			if !ok {
				c, all = -1, false
			}
			cs[j], some = c, some || ok
		}
		switch s.(type) {
		case *pylang.ImportStmt, *pylang.FromImportStmt:
			if some {
				p.cands[i] = cs
			}
		default:
			if some && all {
				p.cands[i] = cs
			}
		}
	}
	return p
}

// probe returns the body of the DD probe that keeps the candidates keep
// lists. It is built in the index's scratch, so it is valid only until the
// next probe: Delta Debugging runs one probe at a time, and an oracle run
// keeps nothing of the body it executed.
func (p *probeIndex) probe(keep []int) []pylang.Stmt {
	setKept(p.kept, keep)
	p.out = p.build(p.out[:0], p.kept)
	return p.out
}

// build appends to out the module body with every candidate that kept
// leaves out removed, at attribute granularity:
//
//   - def / class statements whose name is removed are dropped entirely;
//   - assignments are dropped when every name target is removed;
//   - "import a, b" drops individual aliases;
//   - "from m import a, b" drops individual names — the fine-grained case
//     the paper highlights (Figure 7: "from torch.nn import Linear, MSELoss"
//     becomes "from torch.nn import Linear");
//   - everything else is kept untouched.
func (p *probeIndex) build(out []pylang.Stmt, kept []bool) []pylang.Stmt {
	for i, s := range p.body {
		cs := p.cands[i]
		if cs == nil {
			out = append(out, s)
			continue
		}
		switch v := s.(type) {
		case *pylang.ImportStmt:
			if names, cut := keptAliases(v.Names, cs, kept); cut {
				if len(names) > 0 {
					out = append(out, &pylang.ImportStmt{Pos: v.Pos, Names: names})
				}
				continue
			}
		case *pylang.FromImportStmt:
			if names, cut := keptAliases(v.Names, cs, kept); cut {
				// With no name left the import disappears entirely — and
				// with it the submodule's own initialization cost.
				if len(names) > 0 {
					out = append(out, &pylang.FromImportStmt{
						Pos: v.Pos, Level: v.Level, Module: v.Module, Names: names,
					})
				}
				continue
			}
		default:
			if !anyKept(cs, kept) {
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// keptAliases returns the aliases whose bound name kept does not remove, and
// whether any was removed; aliases is returned as is when none was.
func keptAliases(aliases []pylang.Alias, cs []int, kept []bool) ([]pylang.Alias, bool) {
	n := 0
	for _, c := range cs {
		if c < 0 || kept[c] {
			n++
		}
	}
	if n == len(aliases) {
		return aliases, false
	}
	out := make([]pylang.Alias, 0, n)
	for j, c := range cs {
		if c < 0 || kept[c] {
			out = append(out, aliases[j])
		}
	}
	return out, true
}

func anyKept(cs []int, kept []bool) bool {
	for _, c := range cs {
		if kept[c] {
			return true
		}
	}
	return false
}

// stmtComponents numbers the DD components at statement granularity, the
// statements stmtIsCandidate accepts: stmts maps each component to its
// statement and comp each statement to its component, -1 for a statement
// that is always kept.
func stmtComponents(body []pylang.Stmt) (comp, stmts []int) {
	comp = make([]int, len(body))
	for i, s := range body {
		comp[i] = -1
		if stmtIsCandidate(s) {
			comp[i] = len(stmts)
			stmts = append(stmts, i)
		}
	}
	return comp, stmts
}

// keepStmts appends to out a module body at statement granularity
// (ablation): statement i stays when it is no component (comp[i] < 0) or
// its component is kept. Statements that bind no attribute — or that bind a
// magic attribute — are no component, matching the attribute arm's
// exclusion of magic attributes from DD.
func keepStmts(out, body []pylang.Stmt, comp []int, kept []bool) []pylang.Stmt {
	for i, s := range body {
		if c := comp[i]; c < 0 || kept[c] {
			out = append(out, s)
		}
	}
	return out
}

// keptBitmap turns a DD subset of the indices 0..n-1 into a bitmap.
func keptBitmap(n int, keep []int) []bool {
	kept := make([]bool, n)
	setKept(kept, keep)
	return kept
}

// setKept overwrites the bitmap kept with the DD subset keep.
func setKept(kept []bool, keep []int) {
	clear(kept)
	for _, k := range keep {
		kept[k] = true
	}
}

// stmtIsCandidate reports whether a statement is a valid DD component at
// statement granularity: it binds at least one attribute and none of them
// is magic.
func stmtIsCandidate(s pylang.Stmt) bool {
	names := pylang.BoundNames(s)
	if len(names) == 0 {
		return false
	}
	for _, n := range names {
		if pyruntime.MagicAttrs[n] {
			return false
		}
	}
	return true
}

// sortedNames returns the keys of a string set, sorted.
func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
