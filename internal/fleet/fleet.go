// Package fleet is the sharded virtual-time fleet replay engine: it
// partitions a population of thousands of serverless functions into
// contiguous ID-ordered blocks, replays each block's keep-alive pool
// dynamics on a private worker shard — each shard feeding its own
// monitor.Store, cost ledgers, and obs.Registry — and folds the shard
// results back together in block order at the end of the replay.
//
// The engine's contract is byte-identity across worker counts. Every
// accumulator is either order-independent (integer counters, window
// counts, histogram buckets, max-folds, top-K selections under a total
// order) or folded in a fixed order that does not depend on scheduling:
// functions fold sequentially in ID order within their block, and blocks
// merge in index order — so the net floating-point fold order is function
// ID order no matter how many workers ran or how the OS scheduled them.
// The number of blocks (not workers) is what pins the partition, and it
// is part of the replay configuration.
//
// Telemetry is streaming: no per-invocation record is ever materialized.
// Arrivals come from seeded per-function Poisson streams
// (trace.ArrivalStreamFrom), pool state is bounded by peak concurrency
// (trace.SimulatePoolGated), and every observation lands in mergeable
// rollups (monitor.Store windows), phase ledgers, log-scale histograms,
// and small fixed-size exemplar sets. Resident memory is therefore
// proportional to blocks × windows, flat in the invocation count — a day
// of millions of arrivals replays in seconds within a few tens of MB.
//
// SLO alerting over the merged result is exact, not approximate: a
// monitor boundary at T reads only windows strictly before T and windows
// partition samples by timestamp, so monitor.EvaluateSLOs over the merged
// store reproduces the alert log a single live Monitor observing the
// globally-ordered sample sequence would have produced (see
// monitor/eval.go for the full argument).
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/obs/query"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Function is one fleet member. Arrivals may be given explicitly (small
// hand-built or pre-generated fleets) or generated on the fly from a
// seeded Poisson stream when Arrivals is nil — the streaming form is what
// keeps memory flat at fleet scale.
type Function struct {
	// ID orders the function inside the corpus; the block partition and
	// every floating-point fold follow this order.
	ID int
	// Name labels the function in the ledger and exemplars.
	Name string
	// Archetype and Arm classify the member for attribution (corpus app
	// it was derived from, and "original" vs "debloated"). Either may be
	// empty for unclassified fleets.
	Archetype string
	Arm       string
	// ColdInit is the init latency a cold start pays; Exec the handler
	// duration; MemoryMB the billed memory configuration.
	ColdInit time.Duration
	Exec     time.Duration
	// FallbackInit is the original image's cold init, paid on top of the
	// debloated attempt when a fallback-arm member hits an uncovered path
	// under a chaos replay (zero: the chaos engine derives a default).
	// Ignored outside chaos replays and for non-fallback arms.
	FallbackInit time.Duration
	MemoryMB     int
	// Arrivals, when non-nil, are explicit sorted invocation offsets.
	// When nil, arrivals stream from ArrivalStream(Seed, Rate, Period).
	Arrivals []time.Duration
	// Rate is the expected arrival count over the replay period; Seed
	// keys the function's private arrival stream.
	Rate float64
	Seed int64
}

// Config parameterizes a fleet replay.
type Config struct {
	// Workers is the worker-goroutine count. It affects wall-clock time
	// only — never any byte of the result (default GOMAXPROCS).
	Workers int
	// Blocks is the merge-partition count. It is part of the replay's
	// identity: the same Blocks value yields bit-identical results at any
	// worker count, while changing it may perturb last-bit floating-point
	// rollup sums (default 64, clamped to the function count).
	Blocks int
	// Period is the replay horizon for streamed arrivals.
	Period time.Duration
	// Resolution and Windows size the per-shard stores. Windows defaults
	// to cover Period plus six hours of completion tail so nothing slides
	// out of the ring and post-hoc SLO evaluation stays exact.
	Resolution time.Duration
	Windows    int
	// KeepAlive is the pool keep-alive policy (default 15 minutes).
	KeepAlive time.Duration
	// SLOs are evaluated over the merged store after the replay.
	SLOs []monitor.SLO
	// DashboardEvery renders a dashboard frame at this virtual interval
	// from the merged windows (0 disables frames).
	DashboardEvery time.Duration
	// Seed keys the deterministic exemplar sampler.
	Seed int64
	// Pricing bills each invocation (default AWS).
	Pricing faas.Pricing
	// DisableTelemetry replays only the pool dynamics and counters — the
	// overhead baseline for benchmarking the telemetry plane.
	DisableTelemetry bool
	// LabelSeries additionally records labeled series into the shard
	// stores for mql label matchers: the built-in series under {arm="..."}
	// per arm, and the cost series split pro rata into
	// cost.usd{phase="init"} / cost.usd{phase="handler"} (the ledger's
	// decomposition, as queryable time series). Label cardinality is
	// bounded by the arm count, never the function count, so shard memory
	// stays flat.
	LabelSeries bool
	// Rules are recording rules (query.ParseRules) evaluated incrementally
	// during the replay: each shard sweeps its block's window boundaries
	// after the block replays and records the rule series into its private
	// store, and the shards merge in block-index order like every other
	// artifact. ParseRules restricts bodies to the distributive fragment,
	// which is exactly what makes the merged rule series independent of
	// the worker count.
	Rules []query.Rule
	// Chaos, when non-nil, replays every function through the chaos
	// engine: incident-window admission rejections, latency/brownout
	// stretches, churn flushes, graceful-degradation mechanisms, and the
	// chaos.* telemetry series feeding the resilience scorecard. The
	// engine's seed defaults to Seed and its pricing to Pricing. A nil
	// Chaos leaves every artifact byte-identical to a build without the
	// chaos layer (the gate hooks are bypassed entirely).
	Chaos *chaos.Config

	// chaosEngine is the validated engine built once per Replay from
	// Chaos; shared read-only across worker shards.
	chaosEngine *chaos.Engine

	// blockDone, when set, runs on the merge goroutine after each block
	// has been folded and released (test hook for memory-flatness
	// assertions).
	blockDone func(merged int)
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 64
	}
	if cfg.Resolution <= 0 {
		cfg.Resolution = monitor.DefaultResolution
	}
	if cfg.Windows <= 0 {
		cfg.Windows = int(cfg.Period/cfg.Resolution) + int(6*time.Hour/cfg.Resolution) + 1
	}
	if cfg.KeepAlive <= 0 {
		cfg.KeepAlive = 15 * time.Minute
	}
	if cfg.Pricing == (faas.Pricing{}) {
		cfg.Pricing = faas.AWSPricing()
	}
	return cfg
}

// DefaultSLOs are the objectives a CLI fleet replay evaluates when the
// operator gives none: the cold-start budget FaaSLight motivates (at most
// 15% of invocations may pay an init) and an hourly spend budget sized to
// a 10k-function day. Both use the standard multi-window burn-rate
// parameters (SLO.WithDefaults).
func DefaultSLOs() []monitor.SLO {
	return []monitor.SLO{
		{Name: "fleet-cold-fraction", Kind: monitor.KindColdFraction, Budget: 0.15},
		{Name: "fleet-cost-burn", Kind: monitor.KindCostRate, BudgetUSD: 12},
	}
}

// DefaultChaosSLOs are the chaos-replay objectives: the standard fleet
// pair plus an availability budget (at most 2% of requests may fail;
// deliberately shed load is excluded — see monitor.KindAvailability).
func DefaultChaosSLOs() []monitor.SLO {
	return append(DefaultSLOs(),
		monitor.SLO{Name: "fleet-availability", Kind: monitor.KindAvailability, Budget: 0.02})
}

// partial is one block's private telemetry shard. A partial is owned by
// exactly one worker goroutine while its block replays, then handed to
// the merger; no accumulator is ever written from two goroutines. That
// single ownership is what lets the replay write through lock-free store
// handles and ledger rows (monitor.Store, monitor.Ledger).
type partial struct {
	store  *monitor.Store
	ledger *monitor.Ledger // per function
	arms   *monitor.Ledger // per arm
	arch   *monitor.Ledger // per "archetype/arm"
	reg    *obs.Registry
	hist   *stats.Histogram
	ex     *exemplars

	// Write handles over store, resolved once per shard (nil or zero with
	// telemetry off): the built-in and per-SLO series, the {arm="..."}
	// sets and phase-split cost series (LabelSeries), and the chaos.*
	// series (chaos replays).
	series    *monitor.SampleSeries
	armSeries map[string]*monitor.SampleSeries
	costInit  monitor.Handle
	costExec  monitor.Handle
	chaos     *chaos.Series
	// rng draws from a trace.Source, reseeded for each streamed function
	// (trace.ArrivalStreamFrom).
	rng *rand.Rand

	invocations uint64
	coldStarts  uint64
	errors      uint64
	latest      time.Duration
	peakLive    int
	armFns      map[string]int
	// chaosArms accumulates per-arm resilience counters under a chaos
	// replay (nil otherwise). Integer counters and independent per-key
	// float sums, so the block-index merge order keeps it reproducible.
	chaosArms map[string]*chaos.ArmStats
}

func newPartial(cfg *Config) *partial {
	p := &partial{armFns: make(map[string]int)}
	if cfg.chaosEngine != nil {
		p.chaosArms = make(map[string]*chaos.ArmStats)
	}
	if cfg.DisableTelemetry {
		return p
	}
	p.store = monitor.NewStore(cfg.Resolution, cfg.Windows)
	p.ledger = monitor.NewLedger()
	p.arms = monitor.NewLedger()
	p.arch = monitor.NewLedger()
	p.reg = obs.NewRegistry()
	p.hist = stats.NewHistogram()
	p.ex = newExemplars(topK, cfg.Seed)
	p.series = p.store.SampleSeries(cfg.SLOs)
	if cfg.LabelSeries {
		p.armSeries = make(map[string]*monitor.SampleSeries)
		p.costInit = p.store.Handle(costInitSeries)
		p.costExec = p.store.Handle(costExecSeries)
	}
	if cfg.chaosEngine != nil {
		p.chaos = chaos.NewSeries(p.store)
	}
	return p
}

// merge folds o into p. Call order across partials must be block-index
// order: that is the only scheduling-independent total order, and it is
// what makes every floating-point sum reproducible.
func (p *partial) merge(o *partial) error {
	if err := p.store.Merge(o.store); err != nil {
		return err
	}
	p.ledger.Merge(o.ledger)
	p.arms.Merge(o.arms)
	p.arch.Merge(o.arch)
	p.reg.Merge(o.reg)
	if p.hist != nil {
		p.hist.Merge(o.hist)
	}
	if p.ex != nil {
		p.ex.merge(o.ex)
	}
	p.invocations += o.invocations
	p.coldStarts += o.coldStarts
	p.errors += o.errors
	if o.latest > p.latest {
		p.latest = o.latest
	}
	if o.peakLive > p.peakLive {
		p.peakLive = o.peakLive
	}
	for arm, n := range o.armFns {
		p.armFns[arm] += n
	}
	for arm, s := range o.chaosArms {
		p.chaosArm(arm).Merge(s)
	}
	return nil
}

// chaosArm returns the arm's resilience accumulator, creating it on first
// touch.
func (p *partial) chaosArm(arm string) *chaos.ArmStats {
	if p.chaosArms == nil {
		p.chaosArms = make(map[string]*chaos.ArmStats)
	}
	s, ok := p.chaosArms[arm]
	if !ok {
		s = &chaos.ArmStats{}
		p.chaosArms[arm] = s
	}
	return s
}

// Phase-labeled cost series (LabelSeries): the ledger's pro-rata init/
// handler split, re-recorded as queryable time series. Package-level so
// the canonical encoding is paid once per process, not per invocation.
var (
	costInitSeries = monitor.LabeledSeries("cost.usd", monitor.Label{Key: "phase", Val: "init"})
	costExecSeries = monitor.LabeledSeries("cost.usd", monitor.Label{Key: "phase", Val: "handler"})
)

// fnReplay is one function's view of its shard while it replays: the
// handles resolved for it once, its exemplar sequence, and its chaos state.
type fnReplay struct {
	fn    *Function
	fnKey uint64
	seq   uint64
	// arm is the {arm="..."} handle set (nil without LabelSeries or an
	// arm). The rows resolve at the first served sample, so a function
	// that never runs gets no ledger row; a row of an absent arm or
	// archetype is the zero Row, which records nothing.
	arm                  *monitor.SampleSeries
	row, armRow, archRow monitor.Row
	// st and as are the chaos engine's state and the arm's resilience
	// counters (nil outside chaos replays).
	st *chaos.FnState
	as *chaos.ArmStats
}

// function resolves a function's fold context on its shard.
func (p *partial) function(cfg *Config, fn *Function) *fnReplay {
	r := &fnReplay{fn: fn, fnKey: exemplarFnKey(cfg.Seed, fn.ID)}
	if !cfg.DisableTelemetry {
		r.row = p.ledger.Row(fn.Name)
		if fn.Arm != "" {
			r.armRow = p.arms.Row(fn.Arm)
			if fn.Archetype != "" {
				r.archRow = p.arch.Row(fn.Archetype + "/" + fn.Arm)
			}
			if cfg.LabelSeries {
				r.arm = p.armSeries[fn.Arm]
				if r.arm == nil {
					r.arm = p.store.SampleSeries(nil, monitor.Label{Key: "arm", Val: fn.Arm})
					p.armSeries[fn.Arm] = r.arm
				}
			}
		}
	}
	if cfg.chaosEngine != nil {
		r.st = cfg.chaosEngine.Function(chaos.FnView{
			ID:           fn.ID,
			Arm:          fn.Arm,
			ColdInit:     fn.ColdInit,
			Exec:         fn.Exec,
			FallbackInit: fn.FallbackInit,
			MemoryMB:     fn.MemoryMB,
		})
		r.as = p.chaosArm(fn.Arm)
	}
	return r
}

// replayFunction streams one function's arrivals through the keep-alive
// pool and folds every served invocation into the block's shard. Under a
// chaos replay the arrivals pass through the chaos engine's admission loop
// first (trace.PoolGate): served requests take their phase durations and
// billing from the engine's outcome instead of the member's static
// parameters, churn waves flush pool instances, and dropped arrivals fold
// through drop. Without chaos the gate is zero, which the pool documents
// as bit-identical to the ungated simulation.
//
// Determinism: the engine's per-function state is driven sequentially in
// arrival order, every chaos decision is a pure hash of (seed, function,
// sequence, purpose), and every accumulator is order-independent or folded
// in function-ID order, so the worker-count byte-identity argument holds
// with or without chaos.
func replayFunction(cfg *Config, fn *Function, p *partial) {
	r := p.function(cfg, fn)
	var gate trace.PoolGate
	if r.st != nil {
		gate = trace.PoolGate{
			Admit: func(at time.Duration) bool {
				if p.chaos != nil {
					p.chaos.Arrival(at)
				}
				if r.st.Admit(at) {
					return true
				}
				d := r.st.Drop()
				p.drop(r, at, &d)
				return false
			},
			Busy:  r.st.Serve,
			Flush: r.st.FlushCut,
		}
	}
	if p.rng == nil && fn.Arrivals == nil {
		p.rng = rand.New(trace.NewSource(0))
	}
	res := trace.SimulatePoolGated(fn.arrivalSource(p.rng, cfg.Period), fn.Exec, cfg.KeepAlive, gate,
		func(ev trace.PoolEvent) { p.serve(cfg, r, ev) })
	if res.Invocations > 0 {
		p.reg.Inc("fleet.invocations", int64(res.Invocations))
	}
	if res.ColdStarts > 0 {
		p.reg.Inc("fleet.cold_starts", int64(res.ColdStarts))
	}
	if res.MaxInstances > p.peakLive {
		p.peakLive = res.MaxInstances
	}
	if fn.Arm != "" {
		p.armFns[fn.Arm]++
	}
}

// serve folds one served invocation into the shard: counters always, and
// with telemetry on the store series, ledger rows, latency histogram, and
// exemplar sets. Samples land at completion time.
func (p *partial) serve(cfg *Config, r *fnReplay, ev trace.PoolEvent) {
	fn := r.fn
	var s monitor.Sample
	var out chaos.Outcome
	if r.st != nil {
		out = r.st.Outcome()
		r.as.AddServed(&out)
		s = monitor.Sample{
			Function:   fn.Name,
			Cold:       ev.Cold,
			Class:      "ok",
			Init:       out.Init,
			Exec:       out.Exec,
			E2E:        out.E2E,
			BilledInit: out.BilledInit,
			BilledExec: out.BilledExec,
			Billed:     out.Billed,
			MemoryMB:   fn.MemoryMB,
			CostUSD:    out.CostUSD,
		}
	} else {
		var init time.Duration
		if ev.Cold {
			init = fn.ColdInit
		}
		e2e := init + fn.Exec
		billed := cfg.Pricing.BillDuration(e2e)
		s = monitor.Sample{
			Function:   fn.Name,
			Cold:       ev.Cold,
			Class:      "ok",
			Init:       init,
			Exec:       fn.Exec,
			E2E:        e2e,
			BilledInit: init,
			BilledExec: fn.Exec,
			Billed:     billed,
			MemoryMB:   fn.MemoryMB,
			CostUSD:    cfg.Pricing.Cost(billed, fn.MemoryMB),
		}
	}
	at := ev.At + s.E2E
	p.invocations++
	if ev.Cold {
		p.coldStarts++
	}
	if at > p.latest {
		p.latest = at
	}
	if cfg.DisableTelemetry {
		r.seq++
		return
	}
	p.series.Fold(at, &s)
	r.arm.Fold(at, &s)
	// Pro-rata duration-bill split, mirroring the ledger's Phase.add: the
	// same dollars the ledger attributes to init/handler, as series mql
	// can window and ratio (LabelSeries; the handles are zero otherwise).
	if cfg.LabelSeries && s.Billed > 0 && s.CostUSD > 0 {
		if s.BilledInit > 0 {
			p.costInit.Record(at, s.CostUSD*float64(s.BilledInit)/float64(s.Billed))
		}
		if s.BilledExec > 0 {
			p.costExec.Record(at, s.CostUSD*float64(s.BilledExec)/float64(s.Billed))
		}
	}
	if r.st != nil {
		p.chaos.Served(at, &out)
	}
	r.row.Record(&s)
	r.armRow.Record(&s)
	r.archRow.Record(&s)
	p.hist.Observe(s.E2E.Seconds())
	key := exemplarSampleKey(r.fnKey, r.seq)
	e := Exemplar{
		Function:  fn.Name,
		Archetype: fn.Archetype,
		Arm:       fn.Arm,
		At:        at,
		Init:      s.Init,
		E2E:       s.E2E,
		CostUSD:   s.CostUSD,
		Cold:      ev.Cold,
		seq:       r.seq,
		key:       key,
		span:      exemplarSpanKey(key),
	}
	p.ex.offer(&e)
	r.seq++
}

// drop folds one arrival the chaos client loop gave up on: the arm's
// resilience counters, the chaos.* series at the arrival instant, and a
// failed sample at the loop's end — with no cost and no ledger row, since
// the ledgers attribute dollars and a drop bills nothing.
func (p *partial) drop(r *fnReplay, at time.Duration, d *chaos.Drop) {
	r.as.AddDrop(d)
	if d.Class != "shed" {
		p.errors++
	}
	end := at + d.E2E
	if end > p.latest {
		p.latest = end
	}
	if p.store == nil {
		return
	}
	p.chaos.Drop(at, d)
	s := monitor.Sample{
		Function: r.fn.Name,
		Class:    d.Class,
		E2E:      d.E2E,
		MemoryMB: r.fn.MemoryMB,
	}
	p.series.Fold(end, &s)
	r.arm.Fold(end, &s)
}

// arrivalSource returns the function's arrival iterator: the explicit
// slice when present, the seeded Poisson stream drawn from rng otherwise.
func (fn *Function) arrivalSource(rng *rand.Rand, period time.Duration) func() (time.Duration, bool) {
	if fn.Arrivals != nil {
		return trace.Slice(fn.Arrivals)
	}
	return trace.ArrivalStreamFrom(rng, fn.Seed, fn.Rate, period)
}

func validate(cfg *Config, fns []Function) error {
	if cfg.Period <= 0 {
		streamed := false
		for i := range fns {
			if fns[i].Arrivals == nil {
				streamed = true
				break
			}
		}
		if streamed {
			return fmt.Errorf("fleet: streamed arrivals need a positive Period")
		}
	}
	for i := range fns {
		fn := &fns[i]
		if fn.Name == "" {
			return fmt.Errorf("fleet: function %d has no name", i)
		}
		if fn.Exec <= 0 {
			return fmt.Errorf("fleet: function %q has non-positive Exec", fn.Name)
		}
		if fn.MemoryMB <= 0 {
			return fmt.Errorf("fleet: function %q has non-positive MemoryMB", fn.Name)
		}
		if fn.Arrivals == nil && (math.IsNaN(fn.Rate) || math.IsInf(fn.Rate, 0) || fn.Rate < 0) {
			return fmt.Errorf("fleet: function %q has invalid arrival Rate %v", fn.Name, fn.Rate)
		}
		if !sort.SliceIsSorted(fn.Arrivals, func(a, b int) bool { return fn.Arrivals[a] < fn.Arrivals[b] }) {
			return fmt.Errorf("fleet: function %q has unsorted arrivals", fn.Name)
		}
	}
	return nil
}

// Replay runs the sharded replay and returns the merged result. fns must
// be in corpus order (ascending ID is conventional; what matters is that
// the caller presents the same order every run — the slice order IS the
// fold order).
func Replay(cfg Config, fns []Function) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := validate(&cfg, fns); err != nil {
		return nil, err
	}
	if cfg.Chaos != nil {
		cc := *cfg.Chaos
		if cc.Seed == 0 {
			cc.Seed = cfg.Seed
		}
		if cc.Pricing == (faas.Pricing{}) {
			cc.Pricing = cfg.Pricing
		}
		eng, err := chaos.NewEngine(cc)
		if err != nil {
			return nil, err
		}
		cfg.chaosEngine = eng
	}
	// Pre-apply SLO defaults once: the shard handle sets need the final
	// parameters to route per-SLO bad series, and EvaluateSLOs applies the
	// same idempotent defaults again.
	slos := make([]monitor.SLO, 0, len(cfg.SLOs))
	for _, def := range cfg.SLOs {
		slos = append(slos, def.WithDefaults(cfg.Resolution))
	}
	cfg.SLOs = slos

	n := len(fns)
	blocks := cfg.Blocks
	if blocks > n {
		blocks = n
	}
	if blocks < 1 {
		blocks = 1
	}
	workers := cfg.Workers
	if workers > blocks {
		workers = blocks
	}

	// Contiguous ID-ordered block ranges: block b replays fns[b*n/B,
	// (b+1)*n/B). The partition depends only on (n, Blocks), never on
	// Workers.
	parts := make([]*partial, blocks)
	done := make([]chan struct{}, blocks)
	for b := range done {
		done[b] = make(chan struct{})
	}
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			for b := range jobs {
				p := newPartial(&cfg)
				lo, hi := b*n/blocks, (b+1)*n/blocks
				for i := lo; i < hi; i++ {
					replayFunction(&cfg, &fns[i], p)
				}
				// Recording rules run here, on the worker, while the
				// block's shard is still private: each shard sweeps the
				// boundaries its own block reached, and the per-shard rule
				// series then merge window-wise like any other series.
				// Rule bodies are restricted to the distributive fragment
				// (query.ParseRules), so the merged series equals the
				// global rule value — and the sweep depends only on the
				// block partition, never on the worker count.
				if len(cfg.Rules) > 0 && !cfg.DisableTelemetry {
					query.EvalRules(p.store, cfg.Rules, p.latest)
				}
				parts[b] = p
				close(done[b])
			}
		}()
	}
	go func() {
		for b := 0; b < blocks; b++ {
			jobs <- b
		}
		close(jobs)
	}()

	// Fold shards in block-index order as they complete, releasing each
	// one immediately — live telemetry is bounded by the merged result
	// plus the shards still in flight, regardless of invocation volume.
	final := newPartial(&cfg)
	for b := 0; b < blocks; b++ {
		<-done[b]
		if err := final.merge(parts[b]); err != nil {
			return nil, err
		}
		parts[b] = nil
		if cfg.blockDone != nil {
			cfg.blockDone(b + 1)
		}
	}

	res := &Result{
		Functions:   n,
		Workers:     workers,
		Blocks:      blocks,
		Period:      cfg.Period,
		Resolution:  cfg.Resolution,
		KeepAlive:   cfg.KeepAlive,
		Seed:        cfg.Seed,
		Invocations: final.invocations,
		ColdStarts:  final.coldStarts,
		Errors:      final.errors,
		PeakLive:    final.peakLive,
		Latest:      final.latest,
		SLOs:        cfg.SLOs,
		Store:       final.store,
		Ledger:      final.ledger,
		Arms:        final.arms,
		Archetypes:  final.arch,
		Registry:    final.reg,
		Latency:     final.hist,
		ArmFns:      final.armFns,
	}
	if !cfg.DisableTelemetry {
		res.Alerts, res.FireCounts = monitor.EvaluateSLOs(final.store, cfg.SLOs, final.latest)
		if cfg.chaosEngine != nil {
			res.Chaos = chaos.BuildScorecard(cfg.chaosEngine, final.store,
				final.latest, final.chaosArms, final.armFns)
		}
		if cfg.DashboardEvery > 0 {
			res.Frames = renderFrames(&cfg, final, res.Alerts)
		}
		if final.ex != nil {
			res.Slowest = final.ex.slowest.sorted()
			res.Priciest = final.ex.priciest.sorted()
			res.Sampled = final.ex.sampled.sorted()
		}
	}
	return res, nil
}
