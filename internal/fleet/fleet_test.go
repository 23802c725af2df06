package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/obs/query"
	"repro/internal/trace"
)

// testPopulation builds a small heavy-tailed population without touching
// the appcorpus (cheap archetypes keep the unit tests fast).
func testArchetypes() []Archetype {
	return []Archetype{
		{Name: "tiny", InitOriginal: 300 * time.Millisecond, InitDebloated: 80 * time.Millisecond,
			Exec: 40 * time.Millisecond, MemOriginalMB: 256, MemDebloatedMB: 128},
		{Name: "medium", InitOriginal: 1200 * time.Millisecond, InitDebloated: 300 * time.Millisecond,
			Exec: 200 * time.Millisecond, MemOriginalMB: 512, MemDebloatedMB: 256},
		{Name: "heavy", InitOriginal: 4 * time.Second, InitDebloated: 900 * time.Millisecond,
			Exec: 900 * time.Millisecond, MemOriginalMB: 1024, MemDebloatedMB: 512},
	}
}

func testConfig(workers int) Config {
	rules, err := query.ParseRules(`
		fleet:cost_usd:sum5m = sum(cost.usd[5m])
		fleet:req:rate1m = rate(req.total[1m])
		fleet:cost_cold = sum(cost.usd[5m]) - count(req.cold[5m])
	`)
	if err != nil {
		panic(err)
	}
	return Config{
		Workers:        workers,
		Blocks:         16,
		Period:         6 * time.Hour,
		Resolution:     time.Minute,
		KeepAlive:      10 * time.Minute,
		DashboardEvery: time.Hour,
		Seed:           42,
		LabelSeries:    true,
		Rules:          rules,
		SLOs: []monitor.SLO{
			{Name: "cold-fraction", Kind: monitor.KindColdFraction, Budget: 0.25},
			{Name: "cost-burn", Kind: monitor.KindCostRate, BudgetUSD: 0.02},
		},
	}
}

func artifacts(t *testing.T, r *Result) map[string]string {
	t.Helper()
	e := r.QueryEngine()
	var queries strings.Builder
	for _, q := range []string{
		"cost.usd / req.total",
		"fleet:cost_usd:sum5m",
		`sum(cost.usd{phase="init"}[1h]) / sum(cost.usd[1h])`,
		`rate(req.total{arm="debloated"}[30m])`,
	} {
		out, err := e.InstantJSON(q, -1)
		if err != nil {
			t.Fatalf("InstantJSON(%q): %v", q, err)
		}
		queries.WriteString(out + "\n")
	}
	rng, err := e.RangeJSON("fleet:req:rate1m", 0, -1, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	queries.WriteString(rng + "\n")
	return map[string]string{
		"render":      r.Render(),
		"openmetrics": string(r.OpenMetrics()),
		"alertlog":    r.AlertLog(),
		"dashboard":   r.Dashboard(),
		"ledger":      r.Ledger.RenderTable(),
		"queries":     queries.String(),
	}
}

// TestReplayByteIdenticalAcrossWorkers is the engine's core contract:
// every artifact — report, exposition, alert log, dashboard, per-function
// ledger, flamegraph span tree — is byte-identical at workers 1, 2, and 8.
func TestReplayByteIdenticalAcrossWorkers(t *testing.T) {
	pop := GeneratePopulation(PopConfig{
		Functions: 700, Period: 6 * time.Hour, Seed: 3,
		DebloatedFraction: 0.5, RateMedian: 30, RateSigma: 1.8, RateCap: 20000,
	}, testArchetypes())

	var base map[string]string
	var baseSpans string
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig(workers)
		res, err := Replay(cfg, pop)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Invocations == 0 {
			t.Fatalf("workers=%d: no invocations", workers)
		}
		got := artifacts(t, res)
		tr := obs.New()
		res.EmitSpans(tr)
		spans := renderSpans(tr.Roots(), 0)
		if base == nil {
			base, baseSpans = got, spans
			continue
		}
		for name, want := range base {
			if got[name] != want {
				t.Errorf("workers=%d: %s differs from workers=1\n--- workers=1\n%s\n--- workers=%d\n%s",
					workers, name, clip(want), workers, clip(got[name]))
			}
		}
		if spans != baseSpans {
			t.Errorf("workers=%d: span tree differs\n%s\nvs\n%s", workers, baseSpans, spans)
		}
	}
}

func renderSpans(spans []*obs.Span, depth int) string {
	var b strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&b, "%*s%s [%d,%d] id=%s\n", depth*2, "", s.Name, s.Start, s.End, s.ID)
		b.WriteString(renderSpans(s.Children, depth+1))
	}
	return b.String()
}

// TestExemplarSpanResolves closes the loop the exemplars exist for: the
// span ID carried by an OpenMetrics exemplar annotation must resolve, via
// FindSpan on a tracer that received EmitSpans, to a real span in the
// trace tree (and survive the Chrome trace export).
func TestExemplarSpanResolves(t *testing.T) {
	pop := GeneratePopulation(PopConfig{
		Functions: 200, Period: 2 * time.Hour, Seed: 7,
		DebloatedFraction: 0.5, RateMedian: 30, RateSigma: 1.8, RateCap: 20000,
	}, testArchetypes())
	res, err := Replay(testConfig(4), pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slowest) == 0 {
		t.Fatal("no exemplars kept")
	}

	// The exposition carries at least one exemplar annotation with the
	// slowest invocation's span ID.
	om := string(res.OpenMetrics())
	want := `span_id="` + res.Slowest[0].SpanID() + `"`
	if !strings.Contains(om, want) {
		t.Fatalf("exposition lacks exemplar %s:\n%s", want, clip(om))
	}

	tr := obs.New()
	res.EmitSpans(tr)
	for _, e := range []Exemplar{res.Slowest[0], res.Priciest[0], res.Sampled[0]} {
		s := tr.FindSpan(e.SpanID())
		if s == nil {
			t.Fatalf("span %s (function %s) not found in trace", e.SpanID(), e.Function)
		}
		if s.Name != e.Function || s.End != e.At || s.Dur() != e.E2E {
			t.Errorf("span %s = %s [%v,%v], want %s ending %v spanning %v",
				e.SpanID(), s.Name, s.Start, s.End, e.Function, e.At, e.E2E)
		}
		if e.Init > 0 && (len(s.Children) != 2 || s.Children[0].Name != "init" ||
			s.Children[0].Dur() != e.Init) {
			t.Errorf("span %s children = %v, want init/exec phases", e.SpanID(), s.Children)
		}
	}

	// And the ID survives the Chrome trace export.
	chromeBytes, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(chromeBytes), `"span_id":"`+res.Slowest[0].SpanID()+`"`) {
		t.Error("chrome trace export lost the exemplar span ID")
	}
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "..."
	}
	return s
}

// TestReplayFullScale is the acceptance-scale run: 10k functions, over a
// million invocations, byte-identical across worker counts, replayed in
// seconds. Skipped under -short.
func TestReplayFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale replay skipped under -short")
	}
	pop := GeneratePopulation(DefaultPopConfig(), nil)
	if len(pop) != 10000 {
		t.Fatalf("population size = %d, want 10000", len(pop))
	}
	cfg := Config{
		Period:         24 * time.Hour,
		Resolution:     time.Minute,
		KeepAlive:      15 * time.Minute,
		DashboardEvery: 4 * time.Hour,
		Seed:           1,
		SLOs: []monitor.SLO{
			{Name: "cold-fraction", Kind: monitor.KindColdFraction, Budget: 0.30},
		},
	}
	var base map[string]string
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		start := time.Now()
		res, err := Replay(cfg, pop)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		elapsed := time.Since(start)
		t.Logf("workers=%d: %d invocations in %s (%.0f inv/s)",
			workers, res.Invocations, elapsed.Round(time.Millisecond),
			float64(res.Invocations)/elapsed.Seconds())
		if res.Invocations < 1_000_000 {
			t.Fatalf("workers=%d: %d invocations, want >= 1M", workers, res.Invocations)
		}
		if elapsed > 30*time.Second {
			t.Errorf("workers=%d: replay took %s, want seconds", workers, elapsed)
		}
		got := artifacts(t, res)
		if base == nil {
			base = got
			continue
		}
		for name, want := range base {
			if got[name] != want {
				t.Errorf("workers=%d: %s differs from workers=1", workers, name)
			}
		}
	}
}

// TestReplayMatchesLiveMonitor checks the sharded engine against the
// reference implementation: every pool event globally sorted by
// (completion, function ID) and fed to one live Monitor.
func TestReplayMatchesLiveMonitor(t *testing.T) {
	pricing := faas.AWSPricing()
	gen := trace.Generate(trace.GenConfig{Functions: 24, Period: 2 * time.Hour, Seed: 9})
	keepAlive := 12 * time.Minute
	coldInit := 350 * time.Millisecond
	slos := []monitor.SLO{{Name: "cold-fraction", Kind: monitor.KindColdFraction, Budget: 0.30}}

	fns := make([]Function, 0, len(gen.Functions))
	for i := range gen.Functions {
		f := &gen.Functions[i]
		fns = append(fns, Function{
			ID:       f.ID,
			Name:     fmt.Sprintf("fn-%03d", f.ID),
			ColdInit: coldInit,
			Exec:     time.Duration(f.DurationMS * float64(time.Millisecond)),
			MemoryMB: pricing.ConfigureMemory(f.MemoryMB),
			Arrivals: f.Arrivals,
		})
	}

	res, err := Replay(Config{
		Workers: 4, Blocks: 5, Period: 2 * time.Hour,
		Resolution: time.Minute, Windows: monitor.DefaultWindows,
		KeepAlive: keepAlive, Pricing: pricing, SLOs: slos,
	}, fns)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: global (completion, ID) order through one live Monitor.
	type event struct {
		at time.Duration
		id int
		s  monitor.Sample
	}
	var events []event
	for i := range fns {
		fn := &fns[i]
		trace.SimulatePoolObserved(fn.Arrivals, fn.Exec, keepAlive, func(ev trace.PoolEvent) {
			var init time.Duration
			if ev.Cold {
				init = coldInit
			}
			e2e := init + fn.Exec
			billed := pricing.BillDuration(e2e)
			events = append(events, event{at: ev.At + e2e, id: fn.ID, s: monitor.Sample{
				Function: fn.Name, Cold: ev.Cold, Class: "ok",
				Init: init, Exec: fn.Exec, E2E: e2e,
				BilledInit: init, BilledExec: fn.Exec, Billed: billed,
				MemoryMB: fn.MemoryMB, CostUSD: pricing.Cost(billed, fn.MemoryMB),
			}})
		})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].id < events[j].id
	})
	mon := monitor.New(monitor.Config{Resolution: time.Minute, SLOs: slos})
	for _, ev := range events {
		mon.Observe(ev.at, ev.s)
	}
	mon.Finish()

	if got, want := res.AlertLog(), mon.AlertLog(); got != want {
		t.Errorf("alert log differs:\nengine:\n%s\nmonitor:\n%s", got, want)
	}
	if got, want := fmt.Sprint(res.FireCounts), fmt.Sprint(mon.FireCounts()); got != want {
		t.Errorf("fire counts differ: %s vs %s", got, want)
	}
	// Per-function phases fold in the same (arrival) order either way, so
	// even the dollar sums are bit-identical.
	if got, want := res.Ledger.RenderTable(), mon.Ledger().RenderTable(); got != want {
		t.Errorf("ledger differs:\n%s\nvs\n%s", got, want)
	}
	if got, want := res.Invocations, uint64(len(events)); got != want {
		t.Errorf("invocations = %d, want %d", got, want)
	}
	// Store window counts are integers — exact. Sums may differ in fold
	// order from the time-ordered reference, so allow relative epsilon.
	for _, name := range []string{"req.total", "req.cold", "cost.usd"} {
		g, w := res.Store.Total(name), mon.Store().Total(name)
		if g.Count != w.Count || g.Max != w.Max {
			t.Errorf("series %s: count/max %v/%v, want %v/%v", name, g.Count, g.Max, w.Count, w.Max)
		}
		if diff := math.Abs(g.Sum - w.Sum); diff > 1e-9*math.Abs(w.Sum) {
			t.Errorf("series %s: sum %v, want %v", name, g.Sum, w.Sum)
		}
	}
}

func TestGeneratePopulationDeterministicAndShaped(t *testing.T) {
	pc := PopConfig{Functions: 500, Period: 24 * time.Hour, Seed: 11,
		DebloatedFraction: 0.5, RateMedian: 12, RateSigma: 2.2, RateCap: 40000}
	a := GeneratePopulation(pc, testArchetypes())
	b := GeneratePopulation(pc, testArchetypes())
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same PopConfig produced different populations")
	}
	arms := map[string]int{}
	archs := map[string]bool{}
	var totalRate float64
	for i, fn := range a {
		if fn.ID != i {
			t.Fatalf("fn %d has ID %d", i, fn.ID)
		}
		arms[fn.Arm]++
		archs[fn.Archetype] = true
		if fn.Rate > pc.RateCap {
			t.Fatalf("fn %d rate %.1f exceeds cap", i, fn.Rate)
		}
		if fn.Exec <= 0 || fn.ColdInit <= 0 || fn.MemoryMB < 128 {
			t.Fatalf("fn %d has degenerate parameters: %+v", i, fn)
		}
		totalRate += fn.Rate
	}
	if arms["original"] == 0 || arms["debloated"] == 0 {
		t.Fatalf("arm split degenerate: %v", arms)
	}
	if len(archs) < 2 {
		t.Fatalf("only %d archetypes drawn", len(archs))
	}
	if totalRate < float64(pc.Functions) {
		t.Fatalf("total expected rate %.0f implausibly low", totalRate)
	}

	// A different seed reshapes the population.
	pc2 := pc
	pc2.Seed = 12
	if fmt.Sprint(GeneratePopulation(pc2, testArchetypes())) == fmt.Sprint(a) {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestExemplarSetsOrderIndependent(t *testing.T) {
	mk := func(i int) *Exemplar {
		key := splitmix64(uint64(i) * 0x9E3779B97F4A7C15)
		return &Exemplar{
			Function: fmt.Sprintf("fn-%03d", i%37),
			At:       time.Duration(i) * time.Second,
			E2E:      time.Duration(key%5000) * time.Millisecond,
			CostUSD:  float64(key%977) * 1e-9,
			seq:      uint64(i),
			key:      key,
		}
	}
	const n = 4000
	perm := rand.New(rand.NewSource(5)).Perm(n)
	fwd, shuf := newExemplars(7, 1), newExemplars(7, 1)
	for i := 0; i < n; i++ {
		fwd.offer(mk(i))
		shuf.offer(mk(perm[i]))
	}
	// A third copy built by merging two halves.
	left, right := newExemplars(7, 1), newExemplars(7, 1)
	for i := 0; i < n/2; i++ {
		left.offer(mk(i))
	}
	for i := n / 2; i < n; i++ {
		right.offer(mk(i))
	}
	left.merge(right)
	for _, pair := range []struct {
		name string
		a, b []Exemplar
	}{
		{"shuffled/slowest", fwd.slowest.sorted(), shuf.slowest.sorted()},
		{"shuffled/priciest", fwd.priciest.sorted(), shuf.priciest.sorted()},
		{"shuffled/sampled", fwd.sampled.sorted(), shuf.sampled.sorted()},
		{"merged/slowest", fwd.slowest.sorted(), left.slowest.sorted()},
		{"merged/priciest", fwd.priciest.sorted(), left.priciest.sorted()},
		{"merged/sampled", fwd.sampled.sorted(), left.sampled.sorted()},
	} {
		if fmt.Sprint(pair.a) != fmt.Sprint(pair.b) {
			t.Errorf("%s: selection depends on offer order:\n%v\nvs\n%v", pair.name, pair.a, pair.b)
		}
	}
	if len(fwd.slowest.sorted()) != 7 {
		t.Fatalf("kept %d slowest exemplars, want 7", len(fwd.slowest.sorted()))
	}
}

func TestTopSpendersMatchesFullSort(t *testing.T) {
	pop := GeneratePopulation(PopConfig{
		Functions: 120, Period: 2 * time.Hour, Seed: 8,
		DebloatedFraction: 0.4, RateMedian: 40, RateSigma: 1.5, RateCap: 5000,
	}, testArchetypes())
	res, err := Replay(Config{Workers: 3, Blocks: 7, Period: 2 * time.Hour}, pop)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		name string
		cost float64
	}
	var rows []row
	for _, name := range res.Ledger.Functions() {
		rows = append(rows, row{name, res.Ledger.Function(name).CostUSD()})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].cost != rows[j].cost {
			return rows[i].cost > rows[j].cost
		}
		return rows[i].name < rows[j].name
	})
	got := res.TopSpenders(9)
	if len(got) != 9 {
		t.Fatalf("got %d spenders, want 9", len(got))
	}
	for i, sp := range got {
		if sp.Function != rows[i].name {
			t.Fatalf("spender %d = %s, full sort says %s", i, sp.Function, rows[i].name)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	ok := Function{ID: 0, Name: "f", Exec: time.Millisecond, MemoryMB: 128,
		Arrivals: []time.Duration{1, 2, 3}}
	cases := []struct {
		name string
		cfg  Config
		fns  []Function
	}{
		{"no name", Config{}, []Function{func() Function { f := ok; f.Name = ""; return f }()}},
		{"bad exec", Config{}, []Function{func() Function { f := ok; f.Exec = 0; return f }()}},
		{"bad memory", Config{}, []Function{func() Function { f := ok; f.MemoryMB = 0; return f }()}},
		{"unsorted", Config{}, []Function{func() Function {
			f := ok
			f.Arrivals = []time.Duration{3, 1}
			return f
		}()}},
		{"stream without period", Config{}, []Function{{ID: 0, Name: "f", Exec: time.Millisecond, MemoryMB: 128, Rate: 5}}},
	}
	for _, tc := range cases {
		if _, err := Replay(tc.cfg, tc.fns); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}

	// Telemetry-disabled replay still counts.
	res, err := Replay(Config{DisableTelemetry: true}, []Function{ok})
	if err != nil {
		t.Fatal(err)
	}
	if res.Invocations != 3 || res.Store != nil || res.CostUSD() != 0 {
		t.Fatalf("telemetry-off replay: %+v", res)
	}
}
