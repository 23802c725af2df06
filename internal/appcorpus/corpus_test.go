package appcorpus

import (
	"testing"
	"time"

	"repro/internal/appspec"
	"repro/internal/pyruntime"
	"repro/internal/simtime"
)

// runOnce imports the app and invokes the handler on an oracle event,
// returning init time, init memory, exec time and stdout.
func runOnce(t *testing.T, app *appspec.App, tc appspec.TestCase) (time.Duration, float64, time.Duration, string) {
	t.Helper()
	in := pyruntime.New(app.Image)
	t0 := in.Clock.Now()
	m0 := in.Alloc.Used()
	handler, err := in.LoadHandler(app)
	if err != nil {
		t.Fatalf("%s: import failed: %v", app.Name, err)
	}
	initTime := in.Clock.Now() - t0
	initMem := simtime.MBf(in.Alloc.Used() - m0)
	e0 := in.Clock.Now()
	if _, err := in.CallHandler(handler, app, tc.Event, tc.Name); err != nil {
		t.Fatalf("%s: handler raised: %v", app.Name, err)
	}
	return initTime, initMem, in.Clock.Now() - e0, in.OutputString()
}

func TestCatalogComplete(t *testing.T) {
	defs := Catalog()
	if len(defs) != 21 {
		t.Fatalf("corpus has %d apps, want 21", len(defs))
	}
	bySource := map[string]int{}
	for _, d := range defs {
		bySource[d.Source]++
	}
	// Table 1 lists 8 FaaSLight, 6 RainbowCake and 7 new (PyPI) rows.
	if bySource["FaaSLight"] != 8 || bySource["RainbowCake"] != 6 || bySource["PyPI"] != 7 {
		t.Errorf("suite split = %v, want FaaSLight:8 RainbowCake:6 PyPI:7", bySource)
	}
}

func TestAllAppsRun(t *testing.T) {
	for _, d := range Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			app := d.Build()
			if len(app.Oracle) == 0 {
				t.Fatal("no oracle cases")
			}
			for _, tc := range app.Oracle {
				_, _, _, out := runOnce(t, app, tc)
				if out == "" {
					t.Errorf("case %s produced no output", tc.Name)
				}
			}
		})
	}
}

func TestAllAppsDeterministic(t *testing.T) {
	for _, d := range Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			app1 := d.Build()
			app2 := d.Build()
			_, _, _, out1 := runOnce(t, app1, app1.Oracle[0])
			_, _, _, out2 := runOnce(t, app2, app2.Oracle[0])
			if out1 != out2 {
				t.Errorf("nondeterministic output:\n a: %q\n b: %q", out1, out2)
			}
		})
	}
}

// TestCalibration verifies the corpus hits its Table 1 targets: import and
// exec times within tolerance, memory in range, rep-module attribute counts
// near the paper's values.
func TestCalibration(t *testing.T) {
	for _, d := range Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			app := d.Build()
			initTime, initMem, execTime, _ := runOnce(t, app, app.Oracle[0])

			wantInit := d.ImportS
			gotInit := initTime.Seconds()
			if relErr(gotInit, wantInit) > 0.25 && absErr(gotInit, wantInit) > 0.08 {
				t.Errorf("import time = %.3fs, want ≈%.3fs", gotInit, wantInit)
			}

			wantExec := d.ExecS
			gotExec := execTime.Seconds()
			if relErr(gotExec, wantExec) > 0.30 && absErr(gotExec, wantExec) > 0.06 {
				t.Errorf("exec time = %.3fs, want ≈%.3fs", gotExec, wantExec)
			}

			// Footprint: init memory + 35 MB base should be near target.
			gotMem := initMem + 35
			if relErr(gotMem, d.MemoryMB) > 0.30 {
				t.Errorf("memory = %.1fMB, want ≈%.1fMB", gotMem, d.MemoryMB)
			}
		})
	}
}

func TestRepModuleAttrCounts(t *testing.T) {
	for _, d := range Catalog() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			app := d.Build()
			in := pyruntime.New(app.Image)
			if _, perr := in.Import(app.Entry); perr != nil {
				t.Fatalf("import: %v", perr)
			}
			mod, ok := in.Modules()[d.RepModule]
			if !ok {
				// Representative module may be lazily imported; import it
				// directly.
				m, perr := in.Import(d.RepModule)
				if perr != nil {
					t.Fatalf("rep module %s: %v", d.RepModule, perr)
				}
				mod = m
			}
			count := 0
			for _, name := range mod.Dict.Names() {
				if !pyruntime.MagicAttrs[name] {
					count++
				}
			}
			if relErrInt(count, d.RepAttrs) > 0.10 {
				t.Errorf("%s attrs = %d, want ≈%d", d.RepModule, count, d.RepAttrs)
			}
		})
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff / want
}

func absErr(got, want float64) float64 {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff
}

func relErrInt(got, want int) float64 { return relErr(float64(got), float64(want)) }
