package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/obs/monitor"
	"repro/internal/obs/query"
	"repro/internal/trace"
)

// invPerFunction fixes a population's expected day volume: 1.4 M
// invocations at 10k functions, what the default population draws at
// seed 1. Rates are scaled to it, so the seed changes which functions run
// and how their load is spread, not how much work one replay is.
const invPerFunction = 140

// keepAlive is fleet.Config's default pool keep-alive.
const keepAlive = 15 * time.Minute

// smokeRules are the recording rules of the repository's query smoke test.
var smokeRules = mustParseRules(`fleet:cost_usd:sum5m = sum(cost.usd[5m]); fleet:req:rate5m = rate(req.total[5m])`)

func mustParseRules(src string) []query.Rule {
	rules, err := query.ParseRules(src)
	if err != nil {
		panic(err)
	}
	return rules
}

// fleetBench is the fleet-day or fleet-chaos workload. One op is one
// replay plus the artifacts the CLI prints from it.
type fleetBench struct {
	name   string
	chaos  bool
	pc     fleet.PopConfig
	cfg    fleet.Config
	pop    []fleet.Function
	want   artifacts  // the Workers=1 reference replay's
	golden *artifacts // committed, at seed 1 and full scale
	last   *fleet.Result
}

// replayRec is one replay op's record.
type replayRec struct {
	replay, render, openmetrics, scorecard time.Duration
	inv                                    uint64
}

// newFleetBench generates the population and the replay configuration of
// `lambdatrim -fleet` (chaos false) or `lambdatrim -chaos default -rules
// <query-smoke rules>` (chaos true).
func newFleetBench(withChaos bool, rc runConfig) *fleetBench {
	pc := fleet.DefaultPopConfig()
	pc.Seed = rc.seed
	if rc.short {
		pc.Functions = 500
	}
	f := &fleetBench{name: "fleet-day", chaos: withChaos}
	f.cfg = fleet.Config{
		Workers:        runtime.GOMAXPROCS(0),
		Period:         pc.Period,
		SLOs:           fleet.DefaultSLOs(),
		DashboardEvery: 4 * time.Hour,
		Seed:           pc.Seed,
		Pricing:        pc.Pricing,
	}
	if withChaos {
		f.name = "fleet-chaos"
		pc.ArmMix = []fleet.ArmShare{
			{Arm: chaos.ArmDebloated, Frac: 0.25},
			{Arm: chaos.ArmFallback, Frac: 0.25},
			{Arm: chaos.ArmBreaker, Frac: 0.25},
		}
		f.cfg.Chaos = &chaos.Config{Seed: pc.Seed, Incidents: chaos.DefaultIncidentDay(), Mitigations: chaos.AllMitigations()}
		f.cfg.SLOs = fleet.DefaultChaosSLOs()
		f.cfg.LabelSeries = true
		f.cfg.Rules = smokeRules
	}
	f.pc = pc
	f.pop = population(pc)
	return f
}

// population is fleet.GeneratePopulation with rates scaled to
// invPerFunction.
func population(pc fleet.PopConfig) []fleet.Function {
	pop := fleet.GeneratePopulation(pc, nil)
	sum := 0.0
	for i := range pop {
		sum += pop[i].Rate
	}
	scale := float64(invPerFunction*len(pop)) / sum
	for i := range pop {
		pop[i].Rate *= scale
	}
	return pop
}

func setupFleet(withChaos bool) func(runConfig) (instance[replayRec], error) {
	return func(rc runConfig) (instance[replayRec], error) {
		f := newFleetBench(withChaos, rc)
		if err := f.useGolden(rc); err != nil {
			return nil, err
		}
		return f, nil
	}
}

// useGolden picks the committed digests the replays must match, which
// exist for seed 1 at full scale only.
func (f *fleetBench) useGolden(rc runConfig) error {
	if rc.seed != 1 || rc.short {
		return nil
	}
	g, ok := rc.golden.Fleet[f.name]
	if !ok {
		return fmt.Errorf("no golden digests for %s", f.name)
	}
	f.golden = &g
	return nil
}

// replay runs the configured replay on the given worker count and digests
// its artifacts.
func (f *fleetBench) replay(workers int) (*fleet.Result, artifacts, error) {
	cfg := f.cfg
	cfg.Workers = workers
	res, err := fleet.Replay(cfg, f.pop)
	if err != nil {
		return nil, artifacts{}, err
	}
	return res, artifacts{sha([]byte(res.Render())), sha(res.OpenMetrics()), sha([]byte(res.Scorecard()))}, nil
}

// reference is a one-worker replay: the sharded engine promises the same
// bytes at any worker count.
func (f *fleetBench) reference() (err error) {
	_, f.want, err = f.replay(1)
	return err
}

// check compares an op's artifacts to the reference and, at seed 1, to the
// committed digests.
func (f *fleetBench) check(got artifacts) error {
	if got != f.want {
		return fmt.Errorf("%s: artifacts differ from the 1-worker reference: %+v", f.name, got)
	}
	if f.golden != nil && got != *f.golden {
		return fmt.Errorf("%s: artifacts differ from testdata/golden.json: %+v", f.name, got)
	}
	return nil
}

func (f *fleetBench) op(sp *spans) (replayRec, func() error, error) {
	root := sp.start("replay", "op")
	defer sp.end(root)
	var rec replayRec
	var res *fleet.Result
	var err error
	if rec.replay, err = timed(sp, "fleet.Replay", func() (err error) {
		res, err = fleet.Replay(f.cfg, f.pop)
		return err
	}); err != nil {
		return rec, nil, err
	}
	var report, scorecard string
	var om []byte
	rec.render, _ = timed(sp, "fleet.Result.Render", func() error { report = res.Render(); return nil })
	rec.openmetrics, _ = timed(sp, "fleet.Result.OpenMetrics", func() error { om = res.OpenMetrics(); return nil })
	if f.chaos {
		rec.scorecard, _ = timed(sp, "fleet.Result.Scorecard", func() error { scorecard = res.Scorecard(); return nil })
	}
	rec.inv = res.Invocations
	f.last = res
	return rec, func() error {
		return f.check(artifacts{sha([]byte(report)), sha(om), sha([]byte(scorecard))})
	}, nil
}

// layers times the fleet's layers on the population and configuration the
// replays used, three times each, keeping the median. The standalone
// arrival and pool calls run on as many goroutines as the replay has
// workers, so that their times compare with its wall time.
func (f *fleetBench) layers(sp *spans, ops []timedOp[replayRec]) (*layerReport, error) {
	lr := &layerReport{base: ms(time.Duration(median(durations(ops)))), baseName: "median replay op wall time", values: map[string]float64{}}
	const reps = 3
	root := sp.start("layers", "layers")
	defer sp.end(root)
	recMedian := func(get func(replayRec) time.Duration) time.Duration {
		var xs []float64
		for _, op := range ops {
			xs = append(xs, float64(get(op.rec)))
		}
		return time.Duration(median(xs))
	}
	replayT := recMedian(func(r replayRec) time.Duration { return r.replay })
	var inv, objects uint64
	for _, op := range ops {
		inv += op.rec.inv
		objects += op.allocObjects
	}
	perInv := float64(inv) / float64(len(ops))

	gen, _ := medianOf(sp, reps, "fleet.GeneratePopulation", func() error { population(f.pc); return nil })
	lr.add("fleet.GeneratePopulation (set-up, not in the op)", 0, gen, gen, "fleet.generate_pct")

	arrival, _ := medianOf(sp, reps, "trace.ArrivalStream", func() error {
		f.eachFunction(func(fn *fleet.Function) int {
			next := trace.ArrivalStream(fn.Seed, fn.Rate, f.pc.Period)
			for {
				if _, ok := next(); !ok {
					return 0
				}
			}
		})
		return nil
	})
	lr.add("trace.ArrivalStream (drained)", float64(len(f.pop)), arrival, arrival, "trace.arrival_pct")
	var peak int
	pool, _ := medianOf(sp, reps, "trace.SimulatePoolStream", func() error {
		peak = f.eachFunction(func(fn *fleet.Function) int {
			next := trace.ArrivalStream(fn.Seed, fn.Rate, f.pc.Period)
			return trace.SimulatePoolStream(next, fn.Exec, keepAlive, func(trace.PoolEvent) {}).MaxInstances
		})
		return nil
	})
	// The pool call drains the arrival stream too; what the pool itself
	// costs is the difference.
	lr.add("trace.SimulatePoolStream − trace.ArrivalStream", float64(len(f.pop)), pool, pool-arrival, "trace.pool_pct")

	replayWith := func(name string, cfg fleet.Config) (time.Duration, error) {
		return medianOf(sp, reps, name, func() error { _, err := fleet.Replay(cfg, f.pop); return err })
	}
	off := f.cfg
	off.DisableTelemetry = true
	offT, err := replayWith("fleet.Replay (DisableTelemetry)", off)
	if err != nil {
		return nil, err
	}
	lr.add("fleet.Replay", 1, replayT, replayT, "")
	lr.add("fleet.Replay (DisableTelemetry)", 1, offT, offT, "fleet.replay_off_pct")
	lr.derive("fleet.Replay − fleet.Replay (DisableTelemetry)", replayT-offT, "monitor.fold_pct")
	perInvNote := fmt.Sprintf("per invocation (%.0f per replay): arrival %.1f ns, pool %.1f ns, replay off %.1f ns, fold %.1f ns",
		perInv, nsPer(arrival, perInv), nsPer(pool-arrival, perInv), nsPer(offT, perInv), nsPer(replayT-offT, perInv))
	if f.chaos {
		plain := f.cfg
		plain.Chaos = nil
		plainT, err := replayWith("fleet.Replay (Chaos=nil)", plain)
		if err != nil {
			return nil, err
		}
		plain.Rules = nil
		bareT, err := replayWith("fleet.Replay (Chaos=nil, no rules)", plain)
		if err != nil {
			return nil, err
		}
		lr.derive("fleet.Replay − fleet.Replay (Chaos=nil)", replayT-plainT, "chaos.gate_pct")
		lr.derive("fleet.Replay (Chaos=nil) − (Chaos=nil, no rules)", plainT-bareT, "query.rules_pct")
		perInvNote += fmt.Sprintf(", chaos gate %.1f ns, rules %.1f ns", nsPer(replayT-plainT, perInv), nsPer(plainT-bareT, perInv))
	}
	lr.notes = append(lr.notes, perInvNote)

	last := f.last
	slo, _ := medianOf(sp, reps, "monitor.EvaluateSLOs", func() error {
		monitor.EvaluateSLOs(last.Store, last.SLOs, last.Latest)
		return nil
	})
	lr.add("monitor.EvaluateSLOs", 1, slo, slo, "monitor.slo_eval_pct")
	render := recMedian(func(r replayRec) time.Duration { return r.render })
	lr.add("fleet.Result.Render", 1, render, render, "fleet.render_pct")
	om := recMedian(func(r replayRec) time.Duration { return r.openmetrics })
	lr.add("fleet.Result.OpenMetrics", 1, om, om, "monitor.openmetrics_pct")
	if f.chaos {
		sc := recMedian(func(r replayRec) time.Duration { return r.scorecard })
		lr.add("fleet.Result.Scorecard", 1, sc, sc, "")
	}

	lr.values["trace.peak_live"] = float64(peak)
	lr.values["fleet.allocs_per_inv"] = float64(objects) / float64(inv)
	return lr, nil
}

// eachFunction runs fn over the population on GOMAXPROCS goroutines, one
// contiguous block each, and returns the largest value fn returned.
func (f *fleetBench) eachFunction(fn func(*fleet.Function) int) int {
	workers := f.cfg.Workers
	maxes := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*len(f.pop)/workers, (w+1)*len(f.pop)/workers
			for i := lo; i < hi; i++ {
				if v := fn(&f.pop[i]); v > maxes[w] {
					maxes[w] = v
				}
			}
		}(w)
	}
	wg.Wait()
	peak := 0
	for _, v := range maxes {
		if v > peak {
			peak = v
		}
	}
	return peak
}

func nsPer(d time.Duration, n float64) float64 { return float64(d) / n }

func (f *fleetBench) close() {}
