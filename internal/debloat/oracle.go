package debloat

import (
	"fmt"
	"slices"
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

// equal reports whether two records observe the same behaviour.
func (g goldenRecord) equal(o goldenRecord) bool {
	return g.stdout == o.stdout && g.result == o.result && slices.Equal(g.remote, o.remote)
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

	// mu guards the accounting fields. The oracle itself shares only the
	// caches with other runs (fresh interpreter per run), and those are
	// safe for the corpus pool's concurrent runs.
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
// span clock for everything downstream of profiling.
func (r *runner) nowVirtual() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base + r.virtual
}

// newRunner records the golden behaviour of the unmodified application,
// placed on the pipeline timeline at base: the golden runs it performs are
// already metered into tr's registry (nil: untraced). snap and astc are
// the (possibly suite-shared) snapshot and parse caches; a nil snap
// disables import memoization and a nil astc falls back to a private parse
// cache. Neither cache affects any simulated observable — see DESIGN.md §9.
func newRunner(app *appspec.App, tr *obs.Tracer, base time.Duration, snap *pyruntime.SnapshotCache, astc *pyruntime.ASTCache) (*runner, error) {
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
		if !ok || !rec.equal(r.golden[i]) {
			return false
		}
	}
	return true
}

// diverges reports the first oracle case on which r's golden run observed
// something other than base's.
func (r *runner) diverges(base *runner) (int, bool) {
	for i := range r.golden {
		if !r.golden[i].equal(base.golden[i]) {
			return i, true
		}
	}
	return 0, false
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

	result, errCls := invoke(in, r.app, tc.Event, tc.Name)
	if errCls != "" {
		return goldenRecord{}, false, in.Clock.Now()
	}
	return goldenRecord{
		stdout: in.OutputString(),
		result: pyruntime.Repr(result),
		remote: in.RemoteLog,
	}, true, in.Clock.Now()
}

// invoke performs one invocation of app in in, a fresh interpreter over
// its image, with event and a Lambda context for requestID. errCls is ""
// on success, else the class of the exception that stopped it, or the
// harness's error text when the entry module has no handler or the event
// does not convert. The oracle and the fuzzer each build their own record
// from in afterwards.
func invoke(in *pyruntime.Interp, app *appspec.App, event map[string]any, requestID string) (result pyruntime.Value, errCls string) {
	result, err := in.Invoke(app, event, requestID)
	if err == nil {
		return result, ""
	}
	if perr, ok := err.(*pyruntime.PyErr); ok {
		return nil, perr.ClassName()
	}
	return nil, err.Error()
}
