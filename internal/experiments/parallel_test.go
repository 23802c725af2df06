package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/debloat"
	"repro/internal/obs"
	"repro/internal/pyruntime"
)

// goldenRenderer matches every driver's Render method.
type goldenRenderer interface{ Render() string }

// goldenDrivers lists every table and figure, in presentation order —
// the same set cmd/experiments renders for "all".
var goldenDrivers = []struct {
	name string
	run  func(*Suite) (goldenRenderer, error)
}{
	{"fig1", func(s *Suite) (goldenRenderer, error) { return s.Figure1() }},
	{"table1", func(s *Suite) (goldenRenderer, error) { return s.Table1() }},
	{"fig2", func(s *Suite) (goldenRenderer, error) { return s.Figure2() }},
	{"fig8", func(s *Suite) (goldenRenderer, error) { return s.Figure8() }},
	{"table2", func(s *Suite) (goldenRenderer, error) { return s.Table2() }},
	{"table2x", func(s *Suite) (goldenRenderer, error) { return s.Table2Ext() }},
	{"fig9", func(s *Suite) (goldenRenderer, error) { return s.Figure9() }},
	{"table3", func(s *Suite) (goldenRenderer, error) { return s.Table3() }},
	{"fig10", func(s *Suite) (goldenRenderer, error) { return s.Figure10() }},
	{"fig11", func(s *Suite) (goldenRenderer, error) { return s.Figure11() }},
	{"fig12", func(s *Suite) (goldenRenderer, error) { return s.Figure12() }},
	{"fig13", func(s *Suite) (goldenRenderer, error) { return s.Figure13() }},
	{"fig14", func(s *Suite) (goldenRenderer, error) { return s.Figure14() }},
	{"table4", func(s *Suite) (goldenRenderer, error) { return s.Table4() }},
	{"ext-tune", func(s *Suite) (goldenRenderer, error) { return s.ExtPowerTune() }},
	{"reliability", func(s *Suite) (goldenRenderer, error) { return s.Reliability() }},
	{"monitor", func(s *Suite) (goldenRenderer, error) { return s.Monitor() }},
	{"rollout", func(s *Suite) (goldenRenderer, error) { return s.Rollout() }},
	{"fleet", func(s *Suite) (goldenRenderer, error) { return s.Fleet() }},
}

func renderEverything(t *testing.T, s *Suite) string {
	t.Helper()
	var b strings.Builder
	for _, d := range goldenDrivers {
		r, err := d.run(s)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", d.name, r.Render())
	}
	return b.String()
}

// stripMemoCounters drops the memo.snapshot.* counter lines from a trace
// summary: with a shared cache and a worker pool, which run hits and which
// misses is schedule-dependent (the documented carve-out in DESIGN.md §9).
// Everything else in the summary must match byte for byte.
func stripMemoCounters(s string) string {
	lines := strings.Split(s, "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.Contains(l, "memo.snapshot.") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// resultSummary flattens a debloat result's observables for comparison.
func resultSummary(r *debloat.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle_runs=%d debloat_time=%s removed=%d\n",
		r.OracleRuns, r.DebloatTime, r.TotalRemoved())
	for _, m := range r.Modules {
		fmt.Fprintf(&b, "  %s %d->%d removed=%v dd_tests=%d skipped=%q\n",
			m.Module, m.AttrsBefore, m.AttrsAfter, m.Removed, m.DD.Tests, m.Skipped)
	}
	return b.String()
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  seq: %s\n  par: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// benchGoldenPath holds the benchmark's committed reference digests; its
// "debloat" map has one digest per app of the default-config result.
const benchGoldenPath = "../../cmd/bench/testdata/golden.json"

// checkGoldenDigests checks each app's debloat result in s against the
// benchmark's committed digest, so a change to what the debloater removes
// fails here even when it changes every arm the same way.
func checkGoldenDigests(t *testing.T, s *Suite, names []string) {
	t.Helper()
	raw, err := os.ReadFile(benchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Debloat map[string]string `json:"debloat"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("%s: %v", benchGoldenPath, err)
	}
	for _, name := range names {
		r, err := s.Debloat(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultDigest(r), g.Debloat[name]; got != want {
			t.Errorf("%s: debloat digest %.16s, committed %.16s", name, got, want)
		}
	}
}

// resultDigest is a debloat.Result's identity as the benchmark's goldens
// record it: each module's sorted removed attributes, the oracle run count,
// the simulated debloat time, and the SHA-256 of every file the optimized
// image rewrote.
func resultDigest(r *debloat.Result) string {
	var b bytes.Buffer
	for _, m := range r.Modules {
		removed := append([]string(nil), m.Removed...)
		sort.Strings(removed)
		fmt.Fprintf(&b, "module %s skipped=%q removed=%s\n", m.Module, m.Skipped, strings.Join(removed, ","))
	}
	fmt.Fprintf(&b, "oracle_runs %d\ndebloat_time %d\n", r.OracleRuns, r.DebloatTime)
	for _, path := range r.App.Image.List() {
		src, _ := r.App.Image.Read(path)
		if orig, err := r.Original.Image.Read(path); err == nil && orig == src {
			continue
		}
		fmt.Fprintf(&b, "file %s %s\n", path, sha256Hex(src))
	}
	return sha256Hex(b.String())
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestDebloatAllGoldenDeterminism is the PR's hard invariant: a suite
// primed by DebloatAll(8) with shared memoization caches must render every
// table and figure — and the trace summary — byte-identically to a
// sequential, memoization-disabled run. Parallelism and caching may only
// change real wall-clock time. At both scales each result must also match
// the benchmark's committed digest.
func TestDebloatAllGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		// Fast variant: a small corpus subset, comparing the debloat
		// results' observables instead of every rendered figure.
		subset := []string{"markdown", "igraph", "dna-visualization", "lightgbm"}
		seq := NewSuite()
		seq.DisableMemo = true
		if err := seq.DebloatAll(1, subset...); err != nil {
			t.Fatal(err)
		}
		par := NewSuite()
		if err := par.DebloatAll(8, subset...); err != nil {
			t.Fatal(err)
		}
		for _, name := range subset {
			a, err := seq.Debloat(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.Debloat(name)
			if err != nil {
				t.Fatal(err)
			}
			if sa, sb := resultSummary(a), resultSummary(b); sa != sb {
				t.Errorf("%s diverged:\n%s", name, firstDiff(sa, sb))
			}
		}
		checkGoldenDigests(t, seq, subset)
		checkGoldenDigests(t, par, subset)
		return
	}

	seq := NewSuite()
	seq.DisableMemo = true
	seq.Platform.Tracer = obs.New()
	if err := seq.DebloatAll(1); err != nil {
		t.Fatal(err)
	}
	golden := renderEverything(t, seq)

	par := NewSuite()
	par.Platform.Tracer = obs.New()
	if err := par.DebloatAll(8); err != nil {
		t.Fatal(err)
	}
	got := renderEverything(t, par)

	if golden != got {
		t.Fatalf("rendered output diverged between sequential-uncached and parallel-memoized runs:\n%s",
			firstDiff(golden, got))
	}
	gs := stripMemoCounters(seq.Platform.Tracer.Summary())
	ps := stripMemoCounters(par.Platform.Tracer.Summary())
	if gs != ps {
		t.Fatalf("trace summaries diverged:\n%s", firstDiff(gs, ps))
	}
	checkGoldenDigests(t, seq, AllNames())
	checkGoldenDigests(t, par, AllNames())
}

// TestSnapshotCacheSharedAcrossSuites exercises one snapshot cache shared
// by concurrent suites (the -race CI job's main target): no data races, and
// the second wave of work reuses entries recorded by the first.
func TestSnapshotCacheSharedAcrossSuites(t *testing.T) {
	shared := pyruntime.NewSnapshotCache()
	subset := []string{"markdown", "igraph"}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSuite()
			s.Snapshots = shared
			if err := s.DebloatAll(4, subset...); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := shared.Stats()
	if st.Misses == 0 {
		t.Fatalf("shared cache recorded nothing: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("shared cache was never reused: %+v", st)
	}
}
