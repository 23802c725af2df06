// Package appcorpus builds the 21-application benchmark corpus of the
// paper's Table 1 (8 apps from FaaSLight, 7 from RainbowCake, 6 new from
// popular PyPI packages), as synthetic-but-calibrated serverless
// applications over the Python-subset runtime.
//
// Real PyPI libraries are unavailable to an offline, stdlib-only build, so
// each library is generated with the three observables λ-trim's pipeline
// actually consumes (see DESIGN.md):
//
//  1. the attribute namespace of each module (attribute counts match the
//     paper's Table 3 representative modules: torch has 1414 top-level
//     attributes, transformers 3300, numpy 537, ...);
//  2. marginal import time, carried by load_native calls in module
//     initializers (calibrated to Table 1's Import column);
//  3. marginal memory, carried by load_native/native_alloc (calibrated so
//     debloating recovers the paper's Figure 8 / Table 2 reductions).
//
// Each library has a handwritten "_core" submodule with a working API that
// the application's handler actually exercises, plus generated submodules
// and padding attributes that are redundant for the app — the bloat λ-trim
// removes. Intra-module dependency clusters (a module-level registry
// validated at import time) force Delta Debugging to keep some unprotected
// attributes, as observed in the paper.
package appcorpus

import (
	"fmt"
	"strings"

	"repro/internal/vfs"
)

// GroupSpec is one generated submodule holding removable attributes and
// their share of the library's import cost.
type GroupSpec struct {
	// Name suffix of the submodule (full name "<lib>._<Name>").
	Name string
	// Attrs is the number of exported attributes.
	Attrs int
	// MS and MB are the native load cost of the submodule.
	MS float64
	MB float64
}

// LibSpec describes one synthetic library.
type LibSpec struct {
	// Name is the import name ("torch", "numpy", ...).
	Name string
	// Deps are other top-level libraries imported by this one
	// (e.g. squiggle imports numpy).
	Deps []string

	// CoreMS/CoreMB are unremovable costs paid directly in __init__
	// (interpreter-visible C extension load).
	CoreMS, CoreMB float64
	// CoreSource is the handwritten _core submodule implementing the API
	// the app uses. CoreExports are re-exported at top level.
	CoreSource  string
	CoreExports []string
	// CoreLoadMS/CoreLoadMB are native costs inside _core (also
	// unremovable as long as the app needs any core export).
	CoreLoadMS, CoreLoadMB float64

	// Groups are removable submodules.
	Groups []GroupSpec

	// PadAttrs is the number of cheap top-level padding defs; PadMemMB is
	// spread over padding table constants (removable memory).
	PadAttrs int
	PadMemMB float64

	// KeptCluster is the number of candidate attributes tied into an
	// import-time-validated registry: DD must keep them even though the
	// app never touches them (the paper's "different applications keep
	// different attribute counts of the same module").
	KeptCluster int

	// ExtraSubmodules maps submodule name -> handwritten source, for
	// semantically meaningful submodules like torch.nn.
	ExtraSubmodules map[string]string
	// ExtraInitLines are verbatim lines appended to __init__ (e.g.
	// "from torch import nn" to surface a handwritten submodule).
	ExtraInitLines []string
}

// RemovableMS returns the import-time cost hanging off removable groups.
func (l *LibSpec) RemovableMS() float64 {
	t := 0.0
	for _, g := range l.Groups {
		t += g.MS
	}
	return t
}

// RemovableMB returns the import memory hanging off removable groups and
// padding — the share debloating can recover (the complement of the core
// costs, by makeLib's calibration split).
func (l *LibSpec) RemovableMB() float64 {
	m := l.PadMemMB
	for _, g := range l.Groups {
		m += g.MB
	}
	return m
}

// WriteTo generates the library's files into the image under
// site-packages/.
func (l *LibSpec) WriteTo(fs *vfs.FS) {
	root := "site-packages/" + strings.ReplaceAll(l.Name, ".", "/")
	var sb strings.Builder

	for _, dep := range l.Deps {
		fmt.Fprintf(&sb, "import %s\n", dep)
	}
	if l.CoreMS > 0 || l.CoreMB > 0 {
		fmt.Fprintf(&sb, "load_native(%s, %s)\n", f(l.CoreMS), f(l.CoreMB))
	}

	// Needed API re-exported from _core.
	if len(l.CoreExports) > 0 {
		fmt.Fprintf(&sb, "from %s._core import %s\n", l.Name, strings.Join(l.CoreExports, ", "))
		coreSrc := fmt.Sprintf("load_native(%s, %s)\n", f(l.CoreLoadMS), f(l.CoreLoadMB)) + l.CoreSource
		fs.Write(root+"/_core/__init__.py", coreSrc)
	}

	// Removable groups.
	for _, g := range l.Groups {
		names := make([]string, g.Attrs)
		var gb strings.Builder
		fmt.Fprintf(&gb, "load_native(%s, %s)\n", f(g.MS), f(g.MB))
		for i := 0; i < g.Attrs; i++ {
			names[i] = fmt.Sprintf("%s_f%03d", g.Name, i)
			fmt.Fprintf(&gb, "def %s(x):\n    return x\n", names[i])
		}
		fs.Write(fmt.Sprintf("%s/_%s/__init__.py", root, g.Name), gb.String())
		fmt.Fprintf(&sb, "from %s._%s import %s\n", l.Name, g.Name, strings.Join(names, ", "))
	}

	// Padding attributes: cheap defs plus memory-carrying tables.
	memTables := l.PadAttrs / 4
	if memTables == 0 && l.PadMemMB > 0 {
		memTables = 1
	}
	perTable := 0.0
	if memTables > 0 {
		perTable = l.PadMemMB / float64(memTables)
	}
	tableIdx := 0
	for i := 0; i < l.PadAttrs; i++ {
		if tableIdx < memTables && i%4 == 3 {
			fmt.Fprintf(&sb, "tab_%04d = native_alloc(%s)\n", i, f(perTable))
			tableIdx++
			continue
		}
		switch i % 4 {
		case 0:
			fmt.Fprintf(&sb, "def pad_%04d(x):\n    return x\n", i)
		case 1:
			fmt.Fprintf(&sb, "def pad_%04d(a, b):\n    return a + b\n", i)
		default:
			fmt.Fprintf(&sb, "const_%04d = %d\n", i, i)
		}
	}

	// Handwritten submodules and extra init lines.
	for sub, src := range l.ExtraSubmodules {
		fs.Write(root+"/"+sub+"/__init__.py", src)
	}
	for _, line := range l.ExtraInitLines {
		sb.WriteString(line + "\n")
	}

	// Kept cluster: candidates that import-time validation pins down.
	if l.KeptCluster > 0 {
		names := make([]string, l.KeptCluster)
		for i := 0; i < l.KeptCluster; i++ {
			names[i] = fmt.Sprintf("kern_%03d", i)
			fmt.Fprintf(&sb, "def %s(x):\n    return x + %d\n", names[i], i)
		}
		fmt.Fprintf(&sb, "registry = [%s]\n", strings.Join(names, ", "))
		// __version__ is a magic attribute: its assignment is never a DD
		// candidate, so this reference keeps the registry (and the kernels
		// it lists) alive through debloating.
		fmt.Fprintf(&sb, "__version__ = _check_registry(\"1.0.0\", registry)\n")
	}

	fs.Write(root+"/__init__.py", sb.String())
}

// checkRegistrySnippet is appended to core sources of libraries that carry
// a kept cluster.
const checkRegistrySnippet = `
def _check_registry(version, registry):
    if len(registry) == 0:
        raise RuntimeError("empty kernel registry")
    return version
`

// f formats a float for embedding in generated Python.
func f(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// SplitGroups distributes a removable cost budget over n groups with the
// given attribute counts; earlier groups get geometrically larger shares
// (real libraries concentrate cost in a few heavy submodules).
func SplitGroups(prefix string, n int, attrsTotal int, ms, mb float64) []GroupSpec {
	if n <= 0 {
		return nil
	}
	groups := make([]GroupSpec, n)
	// Geometric weights 1, 1/2, 1/4, ... normalized.
	total := 0.0
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(int(1)<<uint(i))
		total += w[i]
	}
	attrsLeft := attrsTotal
	for i := range groups {
		attrs := attrsTotal / n
		if i == n-1 {
			attrs = attrsLeft
		}
		attrsLeft -= attrs
		if attrs < 1 {
			attrs = 1
		}
		groups[i] = GroupSpec{
			Name:  fmt.Sprintf("%s%d", prefix, i),
			Attrs: attrs,
			MS:    ms * w[i] / total,
			MB:    mb * w[i] / total,
		}
	}
	return groups
}
