package debloat

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/appcorpus"
	"repro/internal/appspec"
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
// snapshot memo on and off, with and without parallel DD.
func TestMemoByteIdentity(t *testing.T) {
	apps := []func() *appspec.App{
		torchExampleApp,
		func() *appspec.App { return appcorpus.MustBuild("markdown") },
		func() *appspec.App { return appcorpus.MustBuild("dna-visualization") },
	}
	if !testing.Short() {
		apps = append(apps,
			func() *appspec.App { return appcorpus.MustBuild("lightgbm") },
			func() *appspec.App { return appcorpus.MustBuild("igraph") },
		)
	}
	for _, build := range apps {
		app := build()
		// Oracle-run accounting is deterministic per worker count but not
		// across worker counts (parallel DD evaluates whole waves; see
		// Config.Workers), so memo identity is asserted within each
		// workers setting.
		for _, workers := range []int{1, 4} {
			var golden string
			for _, disableMemo := range []bool{true, false} {
				cfg := DefaultConfig()
				cfg.DisableMemo = disableMemo
				cfg.Workers = workers
				res, err := Run(build(), cfg)
				if err != nil {
					t.Fatalf("%s/nomemo=%v/w%d: %v", app.Name, disableMemo, workers, err)
				}
				sum := runSummary(t, res)
				if golden == "" {
					golden = sum
					continue
				}
				if sum != golden {
					gl, sl := strings.Split(golden, "\n"), strings.Split(sum, "\n")
					for i := 0; i < len(gl) && i < len(sl); i++ {
						if gl[i] != sl[i] {
							t.Fatalf("%s w%d: memo diverges from no-memo at line %d:\n  no-memo: %s\n  memo:    %s",
								app.Name, workers, i+1, gl[i], sl[i])
						}
					}
					t.Fatalf("%s w%d: memo diverges from no-memo (lengths %d vs %d)",
						app.Name, workers, len(gl), len(sl))
				}
			}
		}
	}
}
