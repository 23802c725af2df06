package debloat

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/appcorpus"
	"repro/internal/appspec"
	"repro/internal/pyruntime"
)

// runSummary flattens every simulated observable of one debloat run:
// the pipeline accounting, per-module DD outcomes, the golden records, and
// the optimized image's rewritten sources.
func runSummary(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "oracle_runs=%d debloat_time=%s removed=%d\n",
		r.OracleRuns, r.DebloatTime, r.TotalRemoved())
	for _, m := range r.Modules {
		fmt.Fprintf(&b, "module %s %d->%d removed=%v dd_tests=%d skipped=%q\n",
			m.Module, m.AttrsBefore, m.AttrsAfter, m.Removed, m.DD.Tests, m.Skipped)
	}
	for _, mp := range r.Profile.Modules {
		fmt.Fprintf(&b, "profile %s t=%s m=%.6f score=%.9f order=%d\n",
			mp.Name, mp.ImportTime, mp.MemoryMB, mp.Score, mp.Order)
	}
	for _, path := range r.App.Image.List() {
		src, err := r.App.Image.Read(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		fmt.Fprintf(&b, "file %s %d bytes\n%s\n", path, len(src), src)
	}
	return b.String()
}

// TestMemoByteIdentity is the import memo's contract at pipeline scale: a
// full debloat run — profiler ranking, every oracle run, DD decisions, and
// the materialized optimized image — must be byte-identical with the
// snapshot memo on and off.
func TestMemoByteIdentity(t *testing.T) {
	apps := []func() *appspec.App{
		torchExampleApp,
		func() *appspec.App { return appcorpus.MustBuild("markdown") },
		func() *appspec.App { return appcorpus.MustBuild("dna-visualization") },
	}
	if !testing.Short() {
		// resnet and huggingface are where replay dominates: a pass reads
		// only a few percent of the slots their replays install.
		apps = append(apps,
			func() *appspec.App { return appcorpus.MustBuild("lightgbm") },
			func() *appspec.App { return appcorpus.MustBuild("igraph") },
			func() *appspec.App { return appcorpus.MustBuild("resnet") },
			func() *appspec.App { return appcorpus.MustBuild("huggingface") },
		)
	}
	for _, build := range apps {
		golden := memoRunSummary(t, build(), true)
		app := build()
		assertSameSummary(t, app.Name, golden, memoRunSummary(t, app, false))
	}
}

// TestSharedSnapshotCacheConcurrentRuns: runs on the corpus pool share one
// SnapshotCache, so their oracle runs read the same snapshot nodes at once
// (lazy replay materializes slots from them). Four concurrent resnet
// debloats against one cache must each match the sequential no-memo run;
// under -race this is the check that shared nodes are only ever read.
func TestSharedSnapshotCacheConcurrentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("four resnet debloats")
	}
	build := func() *appspec.App { return appcorpus.MustBuild("resnet") }
	golden := memoRunSummary(t, build(), true)
	snap := pyruntime.NewSnapshotCache()
	results := make([]*Result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.Snapshots = snap
			res, err := Run(build(), cfg)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res != nil {
			assertSameSummary(t, fmt.Sprintf("resnet run %d", i), golden, runSummary(t, res))
		}
	}
}

// memoRunSummary debloats app under the default configuration, with the
// memo on (a private cache) or off, and summarizes the run.
func memoRunSummary(t *testing.T, app *appspec.App, disableMemo bool) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DisableMemo = disableMemo
	res, err := Run(app, cfg)
	if err != nil {
		t.Fatalf("%s/nomemo=%v: %v", app.Name, disableMemo, err)
	}
	return runSummary(t, res)
}

// assertSameSummary fails at the first line where a memoized run's summary
// diverges from the no-memo golden.
func assertSameSummary(t *testing.T, what, golden, sum string) {
	t.Helper()
	if sum == golden {
		return
	}
	gl, sl := strings.Split(golden, "\n"), strings.Split(sum, "\n")
	for i := 0; i < len(gl) && i < len(sl); i++ {
		if gl[i] != sl[i] {
			t.Fatalf("%s: memo diverges from no-memo at line %d:\n  no-memo: %s\n  memo:    %s",
				what, i+1, gl[i], sl[i])
		}
	}
	t.Fatalf("%s: memo diverges from no-memo (lengths %d vs %d)", what, len(gl), len(sl))
}

// TestRunRetainsNoHeap: a debloat run with its own caches must leave nothing
// behind once it returns. Every cache keyed by an AST pointer or an override
// has to die with the run's SnapshotCache; a process-wide one grows with
// every pass, because each run builds fresh override ASTs. Before such
// caches moved onto the SnapshotCache, these five apps retained about
// 146 KB per pass, so six passes grew the heap by about 870 KB.
func TestRunRetainsNoHeap(t *testing.T) {
	apps := []string{"lxml", "scikit", "igraph", "qiskit-nature", "spacy"}
	pass := func() {
		for _, name := range apps {
			if _, err := Run(appcorpus.MustBuild(name), DefaultConfig()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	pass() // process-wide state every run shares is built once, here
	base := liveHeap()
	const passes = 6
	for i := 0; i < passes; i++ {
		pass()
	}
	const limit = 128 << 10
	if grew := liveHeap() - base; grew > limit {
		t.Fatalf("live heap grew %d KB over %d fresh-cache passes (limit %d KB): a cache outlives its run",
			grew>>10, passes, limit>>10)
	}
}
