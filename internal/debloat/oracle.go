package debloat

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/appspec"
	"repro/internal/obs"
	"repro/internal/pylang"
	"repro/internal/pyruntime"
)

// SpawnOverhead is the simulated cost of spawning a fresh isolated process
// for one oracle run (the paper spawns a new process per DD iteration for
// module isolation, §7).
const SpawnOverhead = 120 * time.Millisecond

// goldenRecord captures the observable behaviour of one oracle test case:
// stdout, the handler's return value, and the journal of external calls.
// Local side effects are deliberately ignored (§5.3 — serverless functions
// are stateless; only remote effects matter).
type goldenRecord struct {
	stdout string
	result string
	remote []pyruntime.RemoteCall
}

// runner executes oracle runs against the application image with a stack of
// accepted module reductions (overrides) plus one candidate overlay, and
// accumulates the simulated debloating time.
type runner struct {
	app       *appspec.App
	astCache  *pyruntime.ASTCache
	snap      *pyruntime.SnapshotCache // nil disables import memoization
	overrides map[string]*pylang.Module
	golden    []goldenRecord

	// mu guards the accounting fields; the oracle itself is safe for
	// concurrent execution (fresh interpreter per run, shared state
	// read-only), which parallel DD relies on.
	mu      sync.Mutex
	virtual time.Duration
	runs    int

	// tr and base place the runner on the pipeline's virtual timeline:
	// nowVirtual() = base (time already spent upstream, i.e. profiling)
	// + accumulated oracle time. Both are set once by Run before any
	// traced work; a nil tr disables tracing entirely.
	tr   *obs.Tracer
	base time.Duration
}

// account records one oracle run's simulated duration.
func (r *runner) account(d time.Duration) {
	r.mu.Lock()
	r.virtual += d + SpawnOverhead
	r.runs++
	r.mu.Unlock()
	if r.tr != nil {
		reg := r.tr.Metrics()
		reg.Inc("debloat.oracle_runs", 1)
		reg.Observe("debloat.oracle.seconds", (d + SpawnOverhead).Seconds())
	}
}

// nowVirtual is the runner's position on the pipeline timeline; it is the
// span clock for everything downstream of profiling. Reads are only
// deterministic at sequential points (between oracle runs, or at parallel
// DD's wave boundaries, where the accumulated sum is schedule-independent).
func (r *runner) nowVirtual() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base + r.virtual
}

// newRunner records the golden behaviour of the unmodified application.
func newRunner(app *appspec.App) (*runner, error) {
	return newTracedRunner(app, nil, 0, nil, nil)
}

// newTracedRunner is newRunner on the pipeline timeline: the golden runs
// it performs are already metered into tr's registry. snap and astc are the
// (possibly suite-shared) snapshot and parse caches; a nil snap disables
// import memoization and a nil astc falls back to a private parse cache.
// Neither cache affects any simulated observable — see DESIGN.md §9.
func newTracedRunner(app *appspec.App, tr *obs.Tracer, base time.Duration, snap *pyruntime.SnapshotCache, astc *pyruntime.ASTCache) (*runner, error) {
	if astc == nil {
		astc = pyruntime.NewASTCache()
	}
	r := &runner{
		app:       app,
		astCache:  astc,
		snap:      snap,
		overrides: make(map[string]*pylang.Module),
		tr:        tr,
		base:      base,
	}
	if len(app.Oracle) == 0 {
		return nil, fmt.Errorf("debloat: app %s has an empty oracle set", app.Name)
	}
	for i, tc := range app.Oracle {
		rec, ok, d := r.execute(tc, "", nil)
		r.account(d)
		if !ok {
			return nil, fmt.Errorf("debloat: app %s fails its own oracle case %d (%s)", app.Name, i, tc.Name)
		}
		r.golden = append(r.golden, rec)
	}
	return r, nil
}

// test runs every oracle case with the candidate overlay for extraName and
// reports whether all observable behaviour matches the golden records.
func (r *runner) test(extraName string, extraAST *pylang.Module) bool {
	for i, tc := range r.app.Oracle {
		rec, ok, d := r.execute(tc, extraName, extraAST)
		r.account(d)
		if !ok {
			return false
		}
		g := r.golden[i]
		if rec.stdout != g.stdout || rec.result != g.result {
			return false
		}
		if len(rec.remote) != len(g.remote) {
			return false
		}
		for j := range rec.remote {
			if rec.remote[j] != g.remote[j] {
				return false
			}
		}
	}
	return true
}

// execute performs one isolated run: fresh interpreter (own module cache —
// the paper's per-iteration process spawn), shared parse cache, accepted
// overrides plus the candidate overlay. It returns the observed behaviour,
// whether the run completed without an exception, and the virtual time the
// run consumed.
func (r *runner) execute(tc appspec.TestCase, extraName string, extraAST *pylang.Module) (goldenRecord, bool, time.Duration) {
	in := pyruntime.New(r.app.Image)
	in.SetASTCache(r.astCache)
	if r.snap != nil {
		in.SetSnapshots(r.snap)
	}
	for name, ast := range r.overrides {
		in.SetOverride(name, ast)
	}
	if extraAST != nil {
		in.SetOverride(extraName, extraAST)
		// The candidate overlay changes on every DD probe; recording import
		// windows around it would only fill the snapshot cache with entries
		// that can never validate again.
		in.SetVolatile(extraName)
	}

	mod, perr := in.Import(r.app.Entry)
	if perr != nil {
		return goldenRecord{}, false, in.Clock.Now()
	}
	handler, ok := mod.Dict.Get(r.app.Handler)
	if !ok {
		return goldenRecord{}, false, in.Clock.Now()
	}
	event, err := pyruntime.FromGo(anyMap(tc.Event))
	if err != nil {
		return goldenRecord{}, false, in.Clock.Now()
	}
	result, perr := in.CallFunction(handler, []Value{event, NewContext(r.app, tc.Name)})
	if perr != nil {
		return goldenRecord{}, false, in.Clock.Now()
	}
	return goldenRecord{
		stdout: in.OutputString(),
		result: pyruntime.Repr(result),
		remote: in.RemoteLog,
	}, true, in.Clock.Now()
}

// Value aliases keep call sites below readable.
type Value = pyruntime.Value

func anyMap(m map[string]any) map[string]any {
	if m == nil {
		return map[string]any{}
	}
	return m
}

// NewContext builds the lambda context object passed as the handler's
// second argument.
func NewContext(app *appspec.App, requestID string) Value {
	ctx := pyruntime.NewDict()
	ctx.SetStr("function_name", pyruntime.StrV(app.Name))
	ctx.SetStr("function_version", pyruntime.StrV("$LATEST"))
	ctx.SetStr("request_id", pyruntime.StrV(requestID))
	ctx.SetStr("memory_limit_in_mb", pyruntime.IntV(3008))
	return ctx
}
