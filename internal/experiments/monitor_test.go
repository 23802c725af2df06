package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs/monitor"
)

// monitorWith replays cfg over the suite's cached debloat of cfg.App.
func monitorWith(t *testing.T, cfg MonitorConfig) *MonitorResult {
	t.Helper()
	res, err := suite.Debloat(cfg.App)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MonitorCompare(res.Original, res.App, res.Profile, suite.Platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The headline acceptance scenario: under one probe-derived SLO set shared
// by both deployments, the original burns its budgets and pages while the
// debloated deployment stays quiet, and the ledger's phase decomposition
// explains the delta as init-phase dollars.
func TestMonitorOriginalPagesDebloatedDoesNot(t *testing.T) {
	res, err := suite.Monitor()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	orig, trim := res.Rows[0], res.Rows[1]
	if orig.Deployment != "original" || trim.Deployment != "debloated" {
		t.Fatalf("row order = %q, %q", orig.Deployment, trim.Deployment)
	}

	if orig.AlertsFired() == 0 {
		t.Error("original should fire at least one burn-rate alert")
	}
	if trim.AlertsFired() != 0 {
		t.Errorf("debloated fired %d alerts under the shared SLOs:\n%s",
			trim.AlertsFired(), trim.AlertLog)
	}
	if orig.AlertLog == "" || trim.AlertLog != "" {
		t.Error("alert logs should mirror the fire counts")
	}

	// Both replay the same workload; the bill explains the paging asymmetry.
	if orig.Requests == 0 || orig.Requests != trim.Requests {
		t.Errorf("requests: %d vs %d, want equal shared workload", orig.Requests, trim.Requests)
	}
	if trim.MemoryMB >= orig.MemoryMB {
		t.Errorf("debloated MemMB %d !< original %d", trim.MemoryMB, orig.MemoryMB)
	}
	op, tp := orig.Phase, trim.Phase
	if op.CostUSD() <= tp.CostUSD() {
		t.Errorf("original bill %v !> debloated %v", op.CostUSD(), tp.CostUSD())
	}
	if op.InitUSD <= tp.InitUSD {
		t.Errorf("original init$ %v !> debloated %v", op.InitUSD, tp.InitUSD)
	}
	// Init dollars dominate the saving — the paper's Figure-2 claim seen
	// through the ledger.
	if initSaved, total := op.InitUSD-tp.InitUSD, op.CostUSD()-tp.CostUSD(); initSaved < total/2 {
		t.Errorf("init$ saving %v < half the total saving %v", initSaved, total)
	}
	// Phase dollars must reconstruct the exact bill for both variants.
	for _, row := range res.Rows {
		ph := row.Phase
		sum := ph.InitUSD + ph.ExecUSD + ph.IdleUSD + ph.RestoreUSD
		if diff := sum - ph.CostUSD(); diff > 1e-15 || diff < -1e-15 {
			t.Errorf("%s: phases %v != bill %v", row.Deployment, sum, ph.CostUSD())
		}
	}

	// Module attribution covers the original's init+restore dollars.
	if len(res.ModuleCosts) == 0 {
		t.Fatal("no module attribution for the original")
	}
	var modSum, shareSum float64
	for _, mc := range res.ModuleCosts {
		modSum += mc.USD
		shareSum += mc.Share
	}
	if diff := modSum - (op.InitUSD + op.RestoreUSD); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("module dollars %v != init dollars %v", modSum, op.InitUSD+op.RestoreUSD)
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Errorf("module shares sum to %v", shareSum)
	}

	// Fleet section sanity.
	f := res.Fleet
	if f.Functions == 0 || f.Invocations == 0 || f.CostUSD <= 0 {
		t.Errorf("fleet summary empty: %+v", f)
	}
	if len(f.TopSpenders) == 0 {
		t.Error("no fleet top spenders")
	}
	for i := 1; i < len(f.TopSpenders); i++ {
		if f.TopSpenders[i].Phase.CostUSD() > f.TopSpenders[i-1].Phase.CostUSD() {
			t.Error("top spenders not sorted by bill")
		}
	}

	out := res.Render()
	for _, want := range []string{
		"Monitor", "latency-p95", "cost-per-invocation", "error-rate",
		"original", "debloated", "delta", "FIRING", "dashboard",
		"by module", "fleet replay", "top spenders",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// Fixed seed + SLO config ⇒ byte-identical monitor artifacts: the rendered
// report, the OpenMetrics expositions, the alert logs, and the dashboards.
func TestMonitorGoldenDeterminism(t *testing.T) {
	a, err := suite.Monitor()
	if err != nil {
		t.Fatal(err)
	}
	b, err := suite.Monitor()
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("same seed rendered differently")
	}
	for i := range a.Rows {
		if !bytes.Equal(a.Rows[i].OpenMetrics, b.Rows[i].OpenMetrics) {
			t.Errorf("%s: OpenMetrics not byte-identical", a.Rows[i].Deployment)
		}
		if a.Rows[i].AlertLog != b.Rows[i].AlertLog {
			t.Errorf("%s: alert log not byte-identical", a.Rows[i].Deployment)
		}
		if a.Rows[i].Dashboard != b.Rows[i].Dashboard {
			t.Errorf("%s: dashboard not byte-identical", a.Rows[i].Deployment)
		}
	}

	// A different seed shifts the workload and therefore the artifacts.
	cfg := DefaultMonitorConfig()
	cfg.Seed = 99
	c := monitorWith(t, cfg)
	if c.Render() == a.Render() {
		t.Error("different seeds rendered identically")
	}
}

// The monitor artifacts may not depend on the corpus-priming worker count:
// a suite primed sequentially and one primed on a pool must replay to the
// same bytes. (The full-corpus variant of this invariant lives in
// TestDebloatAllGoldenDeterminism, which renders the monitor driver too.)
func TestMonitorDeterministicAcrossWorkers(t *testing.T) {
	seq := NewSuite()
	if err := seq.DebloatAll(1, DefaultMonitorConfig().App); err != nil {
		t.Fatal(err)
	}
	par := NewSuite()
	if err := par.DebloatAll(4, DefaultMonitorConfig().App); err != nil {
		t.Fatal(err)
	}
	a, err := seq.Monitor()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Monitor()
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Error("monitor output depends on the priming worker count")
	}
	for i := range a.Rows {
		if !bytes.Equal(a.Rows[i].OpenMetrics, b.Rows[i].OpenMetrics) {
			t.Errorf("%s: OpenMetrics differs across workers", a.Rows[i].Deployment)
		}
	}
}

// A -slo style override replaces the probe-derived set for both variants.
func TestMonitorSLOOverride(t *testing.T) {
	slos, err := monitor.ParseSLOs("err=50%")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMonitorConfig()
	cfg.SLOs = slos
	res := monitorWith(t, cfg)
	if len(res.SLOs) != 1 || res.SLOs[0].Kind != monitor.KindErrorRate {
		t.Fatalf("SLO set = %+v", res.SLOs)
	}
	// The fault-free replay never violates a 50% error budget.
	for _, row := range res.Rows {
		if row.AlertsFired() != 0 {
			t.Errorf("%s fired %d alerts on a loose error SLO", row.Deployment, row.AlertsFired())
		}
		if len(row.FireCounts) != 1 {
			t.Errorf("%s fire counts = %+v", row.Deployment, row.FireCounts)
		}
	}
}
