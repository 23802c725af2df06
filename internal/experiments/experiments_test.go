package experiments

import (
	"strings"
	"testing"
	"time"
)

// suite is shared across tests in this package: debloating the corpus once
// is the expensive step, and every figure reuses it, exactly as the
// artifact workflow does.
var suite = NewSuite()

func TestFigure1Shape(t *testing.T) {
	r, err := suite.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// Function Initialization is a large minority of cold-start latency
	// (paper: up to 29%) and roughly half the bill (paper: up to 45%).
	if r.InitLatencyShare < 0.15 || r.InitLatencyShare > 0.45 {
		t.Errorf("init latency share = %.2f, want 0.15..0.45", r.InitLatencyShare)
	}
	if r.InitBillShare < 0.35 || r.InitBillShare > 0.70 {
		t.Errorf("init bill share = %.2f, want 0.35..0.70", r.InitBillShare)
	}
	// The unbilled provider phases must be nonzero and the image transfer
	// should be near the published 4.44 s for the 742 MB resnet image.
	if r.ImageTransfer < 4*time.Second || r.ImageTransfer > 5*time.Second {
		t.Errorf("image transfer = %v, want ≈4.44s", r.ImageTransfer)
	}
	if r.WarmE2E >= r.ColdE2E/2 {
		t.Errorf("warm start (%v) should be far cheaper than cold (%v)", r.WarmE2E, r.ColdE2E)
	}
	if !strings.Contains(r.Render(), "resnet") {
		t.Error("render missing app name")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r, err := suite.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 21 {
		t.Fatalf("%d rows, want 21", len(r.Rows))
	}
	// Spot-check the calibration anchors.
	byApp := map[string]Table1Row{}
	for _, row := range r.Rows {
		byApp[row.App] = row
	}
	checks := []struct {
		app     string
		importS float64
		e2eS    float64
	}{
		{"resnet", 6.30, 11.71},
		{"huggingface", 5.52, 10.12},
		{"markdown", 0.04, 0.54},
		{"tensorflow", 4.53, 5.33},
	}
	for _, c := range checks {
		row := byApp[c.app]
		if rel(row.ImportS, c.importS) > 0.15 {
			t.Errorf("%s import %.2fs, want ≈%.2fs", c.app, row.ImportS, c.importS)
		}
		if rel(row.E2ES, c.e2eS) > 0.15 {
			t.Errorf("%s E2E %.2fs, want ≈%.2fs", c.app, row.E2ES, c.e2eS)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	r, err := suite.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Figure2Row{}
	for _, row := range r.Rows {
		byApp[row.App] = row
	}
	// The worst offenders spend >90% of billed duration on initialization.
	for _, app := range []string{"spacy", "tensorflow"} {
		if byApp[app].ImportShare < 0.90 {
			t.Errorf("%s import share %.2f, want >0.90", app, byApp[app].ImportShare)
		}
	}
	// Initialization is the majority of the bill for the median app.
	if r.MedianShare < 0.50 {
		t.Errorf("median import share %.2f, want >0.50", r.MedianShare)
	}
	// ffmpeg is exec-bound (wraps an external binary).
	if byApp["ffmpeg"].ImportShare > 0.10 {
		t.Errorf("ffmpeg import share %.2f, want <0.10", byApp["ffmpeg"].ImportShare)
	}
	// Small apps hit the 128 MB billing floor, hiding memory benefits.
	if byApp["markdown"].MemoryMB != 128 || byApp["igraph"].MemoryMB != 128 {
		t.Error("small apps should be billed at the 128 MB floor")
	}
}

func TestFigure8MatchesPaperClaims(t *testing.T) {
	r, err := suite.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 21 {
		t.Fatalf("%d rows, want 21", len(r.Rows))
	}
	// Paper: average 1.2x E2E speedup, max 2x (resnet).
	if r.AvgSpeedup < 1.10 || r.AvgSpeedup > 1.35 {
		t.Errorf("avg speedup %.2f, want ≈1.2", r.AvgSpeedup)
	}
	if r.MaxSpeedup < 1.7 || r.MaxSpeedup > 2.3 {
		t.Errorf("max speedup %.2f, want ≈2", r.MaxSpeedup)
	}
	// Paper: ~10.3% average memory improvement, max 42% (skimage).
	if r.AvgMemImprove < 0.07 || r.AvgMemImprove > 0.25 {
		t.Errorf("avg memory improvement %.2f, want ≈0.10", r.AvgMemImprove)
	}
	if r.MaxMemImprove < 0.30 {
		t.Errorf("max memory improvement %.2f, want ≥0.30", r.MaxMemImprove)
	}
	// Paper: ~19.7% average cost reduction, many apps >50%.
	if r.AvgCostImprove < 0.15 {
		t.Errorf("avg cost improvement %.2f, want ≥0.15", r.AvgCostImprove)
	}
	over50 := 0
	for _, row := range r.Rows {
		if row.CostImprove > 0.50 {
			over50++
		}
	}
	if over50 < 3 {
		t.Errorf("%d apps cut cost >50%%, want several", over50)
	}
	// resnet is the headline speedup; ffmpeg/image-resize barely move
	// (bottlenecked on external executables).
	for _, row := range r.Rows {
		switch row.App {
		case "resnet":
			if row.Speedup < 1.7 {
				t.Errorf("resnet speedup %.2f, want ≈2", row.Speedup)
			}
		case "ffmpeg", "image-resize":
			if row.Speedup > 1.08 {
				t.Errorf("%s speedup %.2f, want ≈1.0", row.App, row.Speedup)
			}
		}
		// Correctness: improvements can never be negative enough to matter.
		if row.CostImprove < -0.02 {
			t.Errorf("%s cost regressed by %.1f%%", row.App, -100*row.CostImprove)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := suite.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(r.Rows))
	}
	for _, row := range r.Rows {
		// λ-trim (ours) should improve import time on every FaaSLight app
		// (negative percent change).
		if row.ImportTrim > 0 {
			t.Errorf("%s: λ-trim import regressed: %+.2f%%", row.App, row.ImportTrim)
		}
		// And beat Vulture's reported (tiny) improvements everywhere
		// except noise cases.
		if row.ImportTrim > row.ImportVulture+1 {
			t.Errorf("%s: λ-trim (%.2f%%) should beat Vulture (%.2f%%)",
				row.App, row.ImportTrim, row.ImportVulture)
		}
	}
	// lightgbm is a λ-trim blowout in the paper; confirm ours outperforms
	// FaaSLight's reported number there.
	for _, row := range r.Rows {
		if row.App == "lightgbm" && row.ImportTrim > row.ImportFaaSLight {
			t.Errorf("lightgbm: λ-trim %.2f%% should beat FaaSLight %.2f%%",
				row.ImportTrim, row.ImportFaaSLight)
		}
	}
}

func TestFigure9CombinedScoringWins(t *testing.T) {
	r, err := suite.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(Figure9Apps)*4 {
		t.Fatalf("%d cells, want %d", len(r.Cells), len(Figure9Apps)*4)
	}
	if !r.CombinedWins() {
		t.Errorf("combined scoring should match or beat all other methods:\n%s", r.Render())
	}
}

func TestFigure10PlateauAt20(t *testing.T) {
	r, err := suite.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if !r.PlateausAt20(0.01) {
		t.Errorf("improvements should plateau by K=20:\n%s", r.Render())
	}
	// Improvements are monotonically non-decreasing in K (more modules
	// debloated can only help, within noise).
	byApp := map[string][]Figure10Cell{}
	for _, c := range r.Cells {
		byApp[c.App] = append(byApp[c.App], c)
	}
	for app, cells := range byApp {
		for i := 1; i < len(cells); i++ {
			if cells[i].Cost < cells[i-1].Cost-0.02 {
				t.Errorf("%s: cost improvement dropped from K=%d (%.3f) to K=%d (%.3f)",
					app, cells[i-1].K, cells[i-1].Cost, cells[i].K, cells[i].Cost)
			}
		}
	}
}

func TestFigure11WarmStartsUnaffected(t *testing.T) {
	r, err := suite.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 21 {
		t.Fatalf("%d rows, want 21", len(r.Rows))
	}
	if r.MaxAbsImpact > 0.10 {
		t.Errorf("max warm-start impact %.1f%%, paper claims <10%%:\n%s",
			100*r.MaxAbsImpact, r.Render())
	}
}

func TestFigure12CheckpointCrossover(t *testing.T) {
	r, err := suite.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Figure12Row{}
	for _, row := range r.Rows {
		rows[row.App] = row
	}
	// Small apps (<0.2s init): λ-trim beats C/R because of CRIU's fixed
	// ~0.1s restore overhead.
	for _, app := range []string{"markdown", "igraph", "ffmpeg"} {
		row := rows[app]
		if row.Trimmed >= row.OriginalCR {
			t.Errorf("%s: λ-trim init (%v) should beat C/R restore (%v)",
				app, row.Trimmed, row.OriginalCR)
		}
	}
	// Large apps: pure C/R beats pure λ-trim (restore loads pages faster
	// than re-import).
	for _, app := range []string{"huggingface", "tensorflow", "spacy"} {
		row := rows[app]
		if row.OriginalCR >= row.Trimmed {
			t.Errorf("%s: C/R restore (%v) should beat λ-trim re-import (%v)",
				app, row.OriginalCR, row.Trimmed)
		}
	}
	for app, row := range rows {
		// Combining always at least matches pure C/R (smaller checkpoint).
		if row.TrimmedCR > row.OriginalCR {
			t.Errorf("%s: C/R+λ-trim (%v) slower than C/R (%v)", app, row.TrimmedCR, row.OriginalCR)
		}
		// Debloating shrinks every checkpoint.
		if row.CkptTrimMB >= row.CkptOrigMB {
			t.Errorf("%s: checkpoint grew %f -> %f MB", app, row.CkptOrigMB, row.CkptTrimMB)
		}
	}
	if r.AvgCkptSaving < 0.05 {
		t.Errorf("avg checkpoint saving %.1f%%, want ≥5%% (paper ~11%%)", 100*r.AvgCkptSaving)
	}
}

func TestFigure13SnapStartDominatesCosts(t *testing.T) {
	r := result(t, "fig13").(*Figure13Result)
	if len(r.Curves) != 3 {
		t.Fatalf("%d curves, want 3", len(r.Curves))
	}
	var medians []float64
	for _, c := range r.Curves {
		medians = append(medians, c.Median)
		if len(c.Ratios) < 100 {
			t.Errorf("keep-alive %v: only %d functions simulated", c.KeepAlive, len(c.Ratios))
		}
	}
	// Paper: at 15 min keep-alive the median app spends >60% of its budget
	// on C/R support, i.e. SnapStart doubles the majority's cost.
	if medians[1] < 0.50 {
		t.Errorf("median SnapStart share at 15min = %.2f, want >0.50", medians[1])
	}
	// Longer keep-alive -> fewer cold starts -> lower (or equal) share.
	if !(medians[0] >= medians[1] && medians[1] >= medians[2]) {
		t.Errorf("medians should decrease with keep-alive: %v", medians)
	}
}

func TestFigure14TrimReducesTotalCosts(t *testing.T) {
	r, err := suite.Figure14()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 20 {
		t.Fatalf("%d rows, want ≈21", len(r.Rows))
	}
	if r.AvgSaving < 0.03 {
		t.Errorf("avg saving %.1f%%, want positive (paper ~11%%)", 100*r.AvgSaving)
	}
	if r.MaxSaving < 0.15 {
		t.Errorf("max saving %.1f%%, want substantial (paper up to 42%%)", 100*r.MaxSaving)
	}
	for _, row := range r.Rows {
		if row.InvocationTrim > row.InvocationOrig*1.01 {
			t.Errorf("%s: invocation cost regressed", row.App)
		}
		if row.CacheRestoreTrim > row.CacheRestoreOrig*1.01 {
			t.Errorf("%s: cache+restore cost regressed", row.App)
		}
	}
}

func TestTable4FallbackOverheads(t *testing.T) {
	r, err := suite.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.FallbackTriggered {
			t.Errorf("%s: fallback never triggered", row.App)
			continue
		}
		// Cold fallback costs more than warm fallback, in both primary
		// states.
		if row.ColdPrimaryColdFallback <= row.ColdPrimaryWarmFallback {
			t.Errorf("%s: cold fallback (%.2f) should exceed warm fallback (%.2f)",
				row.App, row.ColdPrimaryColdFallback, row.ColdPrimaryWarmFallback)
		}
		if row.WarmPrimaryColdFallback <= row.WarmPrimaryWarmFallback {
			t.Errorf("%s: cold fallback (warm primary) ordering wrong", row.App)
		}
		// A cold fallback roughly doubles a cold λ-trim invocation
		// (paper §8.7: "cold fallback overhead doubles the E2E latency").
		if row.ColdPrimaryColdFallback < row.TrimCold*1.5 {
			t.Errorf("%s: cold/cold fallback %.2fs should be ≈2x λ-trim cold %.2fs",
				row.App, row.ColdPrimaryColdFallback, row.TrimCold)
		}
		// Normal operation is unaffected: λ-trim ≤ original.
		if row.TrimCold > row.OrigCold*1.02 {
			t.Errorf("%s: trimmed cold start slower than original", row.App)
		}
	}
}

func TestTable3Efficacy(t *testing.T) {
	r, err := suite.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 21 {
		t.Fatalf("%d rows, want 21", len(r.Rows))
	}
	rows := map[string]Table3Row{}
	for _, row := range r.Rows {
		rows[row.App] = row
	}
	// resnet removes the lion's share of torch's 1414 attributes.
	resnet := rows["resnet"]
	if resnet.AttrsPre < 1300 {
		t.Errorf("resnet torch attrs pre = %d, want ≈1414", resnet.AttrsPre)
	}
	if removed := resnet.AttrsPre - resnet.AttrsPost; removed < 1000 {
		t.Errorf("resnet removed %d torch attrs, want >1000 (paper: 1306)", removed)
	}
	// huggingface removes nearly all of transformers' 3300 attributes.
	hf := rows["huggingface"]
	if removed := hf.AttrsPre - hf.AttrsPost; removed < 2800 {
		t.Errorf("huggingface removed %d transformers attrs, want >2800 (paper: 3291)", removed)
	}
	// Same module, different apps: dna-visualization strips numpy far more
	// than wine does (paper: 496 vs 33).
	dna := rows["dna-visualization"]
	wine := rows["wine"]
	dnaRemoved := dna.AttrsPre - dna.AttrsPost
	wineRemoved := wine.AttrsPre - wine.AttrsPost
	if dnaRemoved <= wineRemoved*3 {
		t.Errorf("numpy removal: dna-visualization %d vs wine %d — expected a large gap",
			dnaRemoved, wineRemoved)
	}
	// Debloating time ordering: the ML apps dominate.
	if rows["huggingface"].DebloatTime < rows["markdown"].DebloatTime*10 {
		t.Errorf("huggingface debloat (%v) should dwarf markdown (%v)",
			rows["huggingface"].DebloatTime, rows["markdown"].DebloatTime)
	}
}

func rel(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

func TestTable2ExtendedOrdering(t *testing.T) {
	r, err := suite.Table2Ext()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(r.Rows))
	}
	for _, row := range r.Rows {
		// λ-trim removes at least as much as FaaSLight, which removes at
		// least as much as Vulture.
		if row.RemovedTrim < row.RemovedFaaSLight || row.RemovedFaaSLight < row.RemovedVulture {
			t.Errorf("%s: removal ordering broken: %d / %d / %d",
				row.App, row.RemovedTrim, row.RemovedFaaSLight, row.RemovedVulture)
		}
		// λ-trim's cost improvement matches or beats both baselines
		// (more negative is better; allow a small tolerance).
		if row.CostTrim > row.CostFaaSLight+0.5 {
			t.Errorf("%s: λ-trim cost %.2f%% worse than FaaSLight %.2f%%",
				row.App, row.CostTrim, row.CostFaaSLight)
		}
		if row.CostTrim > row.CostVulture+0.5 {
			t.Errorf("%s: λ-trim cost %.2f%% worse than Vulture %.2f%%",
				row.App, row.CostTrim, row.CostVulture)
		}
		// Vulture stays timid: single-digit import improvements except on
		// apps with genuinely unreferenced code.
		if row.ImportVulture < -30 {
			t.Errorf("%s: Vulture suspiciously strong (%.2f%%)", row.App, row.ImportVulture)
		}
	}
}

func TestExtPowerTuneCompounds(t *testing.T) {
	r, err := suite.ExtPowerTune()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 21 {
		t.Fatalf("%d rows, want 21", len(r.Rows))
	}
	// Power-tuning compounds with debloating: the tuned saving exceeds the
	// untuned Figure 8 average.
	fig8, err := suite.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgTunedSaving < fig8.AvgCostImprove {
		t.Errorf("tuned saving %.1f%% should be >= untuned %.1f%%",
			100*r.AvgTunedSaving, 100*fig8.AvgCostImprove)
	}
	// Some apps drop under the 128 MB floor only after debloating.
	if r.FloorUnlocked < 2 {
		t.Errorf("floor unlocked for %d apps, want ≥2", r.FloorUnlocked)
	}
	for _, row := range r.Rows {
		if row.TrimCheapestMB > row.OrigCheapestMB {
			t.Errorf("%s: trimmed app needs more memory (%d > %d MB)",
				row.App, row.TrimCheapestMB, row.OrigCheapestMB)
		}
		if row.Saving < -0.02 {
			t.Errorf("%s: tuned cost regressed %.1f%%", row.App, -100*row.Saving)
		}
	}
}
