// Package profiler implements λ-trim's cost profiler (§5.2 of the paper).
//
// The profiler patches the runtime's import machinery with a hook that
// timestamps every module execution, yielding each module's marginal import
// time t and marginal memory footprint m (both inclusive of the module's
// own submodule imports, per the paper's definition). It then ranks modules
// by marginal monetary cost
//
//	TM − (T−t)(M−m)                                   (Eq. 2)
//
// where T and M are the totals across the whole Function Initialization
// phase, and hands the top-K to the debloater.
package profiler

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/pyruntime"
	"repro/internal/simtime"
	"repro/internal/vfs"
)

// Scoring selects the ranking method; Combined is the paper's Eq. 2 and the
// others are the ablation arms of Figure 9.
type Scoring int

const (
	// Combined ranks by marginal monetary cost (Eq. 2).
	Combined Scoring = iota
	// TimeOnly ranks by marginal import time.
	TimeOnly
	// MemoryOnly ranks by marginal memory footprint.
	MemoryOnly
	// Random assigns each module a seeded random score in [0, 1).
	Random
)

func (s Scoring) String() string {
	switch s {
	case Combined:
		return "combined"
	case TimeOnly:
		return "time"
	case MemoryOnly:
		return "memory"
	case Random:
		return "random"
	}
	return fmt.Sprintf("Scoring(%d)", int(s))
}

// ModuleProfile is the measurement for one module.
type ModuleProfile struct {
	Name       string
	ImportTime time.Duration // marginal t, inclusive of submodules
	MemoryMB   float64       // marginal m, inclusive of submodules
	Score      float64
	Order      int // execution order (0 = first module executed)
}

// Profile is the result of profiling one application's initialization.
type Profile struct {
	Entry      string
	TotalTime  time.Duration // T: full Function Initialization time
	TotalMemMB float64       // M: full Function Initialization footprint
	Modules    []ModuleProfile
}

// TopK returns the K highest-scoring modules (fewer if not enough were
// imported). The slice is ordered best-first and safe to mutate.
func (p *Profile) TopK(k int) []ModuleProfile {
	if k > len(p.Modules) {
		k = len(p.Modules)
	}
	out := make([]ModuleProfile, k)
	copy(out, p.Modules[:k])
	return out
}

// Lookup returns the profile for a module name.
func (p *Profile) Lookup(name string) (ModuleProfile, bool) {
	for _, m := range p.Modules {
		if m.Name == name {
			return m, true
		}
	}
	return ModuleProfile{}, false
}

// importHook measures marginal time/memory per module via before/after
// deltas, mirroring the paper's patched module loader.
type importHook struct {
	clock *simtime.Clock
	alloc *simtime.Allocator
	stack []frameMark
	out   map[string]ModuleProfile
	order int
	tr    *obs.Tracer
}

type frameMark struct {
	name  string
	t0    time.Duration
	mem0  int64
	order int
	sp    *obs.Span
}

func (h *importHook) BeforeModuleExec(name string) {
	// The span nests under the enclosing module's span, mirroring the
	// import structure; the outermost import parents to the profile span.
	var parent *obs.Span
	if len(h.stack) > 0 {
		parent = h.stack[len(h.stack)-1].sp
	}
	sp := h.tr.StartChild(parent, "import "+name, "profiler", h.clock.Now())
	h.stack = append(h.stack, frameMark{
		name: name, t0: h.clock.Now(), mem0: h.alloc.Used(), order: h.order, sp: sp,
	})
	h.order++
}

func (h *importHook) AfterModuleExec(name string, err error) {
	top := h.stack[len(h.stack)-1]
	h.stack = h.stack[:len(h.stack)-1]
	now := h.clock.Now()
	if top.sp != nil {
		top.sp.Add(
			obs.DurationUS("marginal_us", now-top.t0),
			obs.Attr{Key: "marginal_mb", Val: strconv.FormatFloat(simtime.MBf(h.alloc.Used()-top.mem0), 'f', 3, 64)},
		)
		if err != nil {
			top.sp.Add(obs.String("error", err.Error()))
		}
		top.sp.Finish(now)
	}
	if err != nil {
		return
	}
	h.out[name] = ModuleProfile{
		Name:       name,
		ImportTime: now - top.t0,
		MemoryMB:   simtime.MBf(h.alloc.Used() - top.mem0),
		Order:      top.order,
	}
}

// Options configures a profiling run.
type Options struct {
	Scoring Scoring
	// Seed drives the Random scoring method only.
	Seed int64
	// Tracer, when non-nil, records the profiling run as a span tree on
	// the profiling interpreter's clock: one "profile" span holding one
	// span per module execution, nested by import structure, each
	// carrying its marginal time and memory.
	Tracer *obs.Tracer
	// ASTCache, when non-nil, is the parse cache the profiling interpreter
	// reads and fills: the debloater passes its run's cache, so the golden
	// runs, the probes' live imports and the final verification reuse the
	// profiler's parses. Nil parses every module without keeping anything.
	// Parsing consumes no virtual time, so the profile is the same either
	// way.
	ASTCache *pyruntime.ASTCache
}

// Run imports the entry module in a fresh, isolated interpreter (the
// paper's "module isolation": a new process per phase) and returns the
// ranked profile.
func Run(image *vfs.FS, entry string, opts Options) (*Profile, error) {
	in := pyruntime.New(image)
	in.SetASTCache(opts.ASTCache)
	hook := &importHook{
		clock: in.Clock,
		alloc: in.Alloc,
		out:   make(map[string]ModuleProfile),
		tr:    opts.Tracer,
	}
	in.AddImportHook(hook)

	t0 := in.Clock.Now()
	m0 := in.Alloc.Used()
	sp := opts.Tracer.Start("profile "+entry, "profiler", t0)
	if _, err := in.Import(entry); err != nil {
		opts.Tracer.End(sp, in.Clock.Now())
		return nil, fmt.Errorf("profiler: initialization failed: %s", err.Error())
	}
	prof := &Profile{
		Entry:      entry,
		TotalTime:  in.Clock.Now() - t0,
		TotalMemMB: simtime.MBf(in.Alloc.Used() - m0),
	}
	sp.Add(
		obs.DurationUS("total_us", prof.TotalTime),
		obs.Attr{Key: "total_mem_mb", Val: strconv.FormatFloat(prof.TotalMemMB, 'f', 3, 64)},
	)
	opts.Tracer.End(sp, in.Clock.Now())
	opts.Tracer.Metrics().Observe("profiler.init.seconds", prof.TotalTime.Seconds())

	// The entry module is application code, never a candidate.
	for name, mp := range hook.out {
		if name == entry {
			continue
		}
		prof.Modules = append(prof.Modules, mp)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	// Random scores must be assigned in a deterministic module order.
	sort.Slice(prof.Modules, func(i, j int) bool {
		return prof.Modules[i].Name < prof.Modules[j].Name
	})
	for i := range prof.Modules {
		prof.Modules[i].Score = score(opts.Scoring, prof.Modules[i], prof, rng)
	}
	sort.SliceStable(prof.Modules, func(i, j int) bool {
		if prof.Modules[i].Score != prof.Modules[j].Score {
			return prof.Modules[i].Score > prof.Modules[j].Score
		}
		return prof.Modules[i].Name < prof.Modules[j].Name
	})
	opts.Tracer.Metrics().Inc("profiler.modules", int64(len(prof.Modules)))
	return prof, nil
}

// score computes a module's ranking score under the selected method.
func score(method Scoring, m ModuleProfile, p *Profile, rng *rand.Rand) float64 {
	switch method {
	case Combined:
		return MarginalMonetaryCost(m.ImportTime, p.TotalTime, m.MemoryMB, p.TotalMemMB)
	case TimeOnly:
		return m.ImportTime.Seconds()
	case MemoryOnly:
		return m.MemoryMB
	case Random:
		return rng.Float64()
	}
	return 0
}

// MarginalMonetaryCost is Eq. 2, the Combined score of a module with
// marginal import time t and memory m (MB) in an app whose initialization
// totals T and M: TM − (T−t)(M−m). Expanding shows why it beats single-axis
// scoring: tM + mT − tm — a module scores by its time weighted by the app's
// total memory plus its memory weighted by total time.
func MarginalMonetaryCost(t, T time.Duration, m, M float64) float64 {
	ts, Ts := t.Seconds(), T.Seconds()
	return Ts*M - (Ts-ts)*(M-m)
}
