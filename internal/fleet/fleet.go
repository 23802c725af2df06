// Package fleet is the sharded virtual-time fleet replay engine: it
// partitions a population of thousands of serverless functions into
// contiguous ID-ordered blocks, replays each block's keep-alive pool
// dynamics on a private worker shard — each shard feeding its own
// monitor.Store and cost ledgers — and folds the shard results back
// together in block order at the end of the replay.
//
// The engine's contract is byte-identity across worker counts. Every
// accumulator is either order-independent (integer counters, window
// counts, histogram buckets, max-folds, top-K selections under a total
// order) or folded in a fixed order that does not depend on scheduling:
// functions fold sequentially in ID order within their block, and blocks
// merge in index order — so the net floating-point fold order is function
// ID order no matter how many workers ran or how the OS scheduled them.
// The number of blocks (not workers) is what pins the partition; it is a
// package constant, like the rest of the replay's geometry.
//
// Telemetry is streaming: no per-invocation record is ever materialized.
// Arrivals come from seeded per-function Poisson streams
// (trace.ArrivalStreamFrom), pool state is bounded by peak concurrency
// (trace.SimulatePoolGated), and every observation lands in mergeable
// rollups (monitor.Store windows), phase ledgers, log-scale histograms,
// and small fixed-size exemplar sets. The shards record into 2×workers
// stores that the merge empties and hands back, so resident memory is
// bounded by those stores plus the merged result whatever the schedule,
// and flat in the invocation count: a day of millions of arrivals replays
// in seconds within a few tens of MB.
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

// The replay's geometry. Every caller replays with these values, so they
// are constants rather than options.
const (
	// blockCount is the merge-partition count, capped at the function
	// count. It is part of the replay's identity: the block count, not the
	// worker count, fixes every fold order, so any worker count yields the
	// same bits.
	blockCount = 64
	// KeepAlive is the pool keep-alive policy: the paper's fixed 15
	// minutes.
	KeepAlive = 15 * time.Minute
	// completionTail is how far past the last arrival the shard rings
	// reach, so no completion slides out of a ring and post-hoc SLO
	// evaluation stays exact.
	completionTail = 6 * time.Hour
)

// Config parameterizes a fleet replay. Stores use monitor.DefaultResolution
// windows, and their rings cover the replay horizon plus completionTail.
type Config struct {
	// Workers is the worker-goroutine count. It affects wall-clock time
	// only — never any byte of the result (default GOMAXPROCS).
	Workers int
	// Period is the replay horizon for streamed arrivals.
	Period time.Duration
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
	// has been folded and its store reset (test hook for memory-flatness
	// assertions).
	blockDone func(merged int)
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
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
	// warm and cold are the replaying function's served samples outside a
	// chaos replay, which depend only on the function and on whether the
	// request started cold. replayFunction sets them before the pool runs.
	warm, cold served

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

// newPartial builds a shard over st, an empty store (nil with telemetry
// off).
func newPartial(cfg *Config, st *monitor.Store) *partial {
	p := &partial{armFns: make(map[string]int)}
	if cfg.chaosEngine != nil {
		p.chaosArms = make(map[string]*chaos.ArmStats)
	}
	if cfg.DisableTelemetry {
		return p
	}
	p.store = st
	p.ledger = monitor.NewLedger()
	p.arms = monitor.NewLedger()
	p.arch = monitor.NewLedger()
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
// what makes every floating-point sum reproducible. The store merge fails
// only on a ring-geometry mismatch, which stores from one constructor
// cannot have.
func (p *partial) merge(o *partial) error {
	if err := p.store.Merge(o.store); err != nil {
		return err
	}
	p.ledger.Merge(o.ledger)
	p.arms.Merge(o.arms)
	p.arch.Merge(o.arch)
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

// served is one served sample with what the fold derives from it: its
// ledger contribution and its latency in seconds.
type served struct {
	s    monitor.Sample
	c    monitor.Phase
	secs float64
}

// derive sets the sample's ledger contribution and latency in seconds.
func (sv *served) derive() {
	sv.c = monitor.PhaseOf(&sv.s)
	sv.secs = sv.s.E2E.Seconds()
}

// nominal sets sv to the sample every served request of fn is outside a
// chaos replay: a cold start pays ColdInit before the handler, and the
// bill is Eq. 1 over the rounded end-to-end time. A replay without
// telemetry reads only E2E.
func (sv *served) nominal(cfg *Config, fn *Function, cold bool) {
	var init time.Duration
	if cold {
		init = fn.ColdInit
	}
	e2e := init + fn.Exec
	if cfg.DisableTelemetry {
		sv.s.E2E = e2e
		return
	}
	billed := cfg.Pricing.BillDuration(e2e)
	sv.s = monitor.Sample{
		Function: fn.Name, Cold: cold, Class: "ok",
		Init: init, Exec: fn.Exec, E2E: e2e,
		BilledInit: init, BilledExec: fn.Exec, Billed: billed,
		MemoryMB: fn.MemoryMB, CostUSD: cfg.Pricing.Cost(billed, fn.MemoryMB),
	}
	sv.derive()
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
	if r.st == nil {
		p.warm.nominal(cfg, fn, false)
		p.cold.nominal(cfg, fn, true)
	}
	res := trace.SimulatePoolGated(fn.arrivalSource(p.rng, cfg.Period), fn.Exec, KeepAlive, gate,
		func(ev trace.PoolEvent) { p.serve(cfg, r, ev) })
	if res.MaxInstances > p.peakLive {
		p.peakLive = res.MaxInstances
	}
	if fn.Arm != "" {
		p.armFns[fn.Arm]++
	}
}

// serve folds one served invocation into the shard: counters always, and
// with telemetry on the store series, ledger rows, latency histogram, and
// exemplar sets. Samples land at completion time. Outside chaos the
// request folds the function's fixed warm or cold sample; under chaos the
// engine's outcome for this request builds the sample, whose ledger
// contribution is then computed once for the three rows and the phase
// series. An exemplar is built only when it could enter a set.
func (p *partial) serve(cfg *Config, r *fnReplay, ev trace.PoolEvent) {
	fn := r.fn
	var sv *served
	var out *chaos.Outcome
	if r.st == nil {
		sv = &p.warm
		if ev.Cold {
			sv = &p.cold
		}
	} else {
		out = r.st.Outcome()
		r.as.AddServed(out)
		sv = &served{s: monitor.Sample{
			Function: fn.Name, Cold: ev.Cold, Class: "ok",
			Init: out.Init, Exec: out.Exec, E2E: out.E2E,
			BilledInit: out.BilledInit, BilledExec: out.BilledExec, Billed: out.Billed,
			MemoryMB: fn.MemoryMB, CostUSD: out.CostUSD,
		}}
		if !cfg.DisableTelemetry {
			sv.derive()
		}
	}
	s := &sv.s
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
	p.series.Fold(at, s)
	r.arm.Fold(at, s)
	c := &sv.c
	// The ledger's init/handler dollars as series mql can window and ratio
	// (LabelSeries; the handles are zero otherwise).
	if cfg.LabelSeries && s.Billed > 0 && s.CostUSD > 0 {
		if s.BilledInit > 0 {
			p.costInit.Record(at, c.InitUSD)
		}
		if s.BilledExec > 0 {
			p.costExec.Record(at, c.ExecUSD)
		}
	}
	if out != nil {
		p.chaos.Served(at, out)
	}
	r.row.Add(c)
	r.armRow.Add(c)
	r.archRow.Add(c)
	p.hist.Observe(sv.secs)
	key := exemplarSampleKey(r.fnKey, r.seq)
	if p.ex.admits(s.E2E, s.CostUSD, key) {
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
	}
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

// ringWindows sizes the shard rings: the replay horizon (Period, or the
// last explicit arrival when that is later) plus completionTail, in
// monitor.DefaultResolution windows.
func ringWindows(period time.Duration, fns []Function) int {
	horizon := period
	for i := range fns {
		if a := fns[i].Arrivals; len(a) > 0 && a[len(a)-1] > horizon {
			horizon = a[len(a)-1]
		}
	}
	return int(horizon/monitor.DefaultResolution) + int(completionTail/monitor.DefaultResolution) + 1
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
		slos = append(slos, def.WithDefaults(monitor.DefaultResolution))
	}
	cfg.SLOs = slos

	n := len(fns)
	blocks := min(blockCount, max(n, 1))
	workers := min(cfg.Workers, blocks)
	windows := ringWindows(cfg.Period, fns)
	newStore := func() *monitor.Store {
		if cfg.DisableTelemetry {
			return nil
		}
		return monitor.NewStore(monitor.DefaultResolution, windows)
	}

	// Contiguous ID-ordered block ranges: block b replays fns[b*n/B,
	// (b+1)*n/B). The partition depends only on n, never on Workers.
	//
	// Shards record into 2×workers stores. The dispatcher hands them out
	// in block order, and the merge empties each folded shard's store and
	// hands it back, so at most that many shards exist however far the
	// merge lags. Because stores go out in block order, the block the merge
	// waits for always holds one.
	type job struct {
		b     int
		store *monitor.Store
	}
	// free holds every store, so handing one back never blocks.
	free := make(chan *monitor.Store, 2*workers)
	for i := 0; i < cap(free); i++ {
		free <- newStore()
	}
	parts := make([]*partial, blocks)
	done := make([]chan struct{}, blocks)
	for b := range done {
		done[b] = make(chan struct{})
	}
	jobs := make(chan job)
	for w := 0; w < workers; w++ {
		go func() {
			for j := range jobs {
				p := newPartial(&cfg, j.store)
				lo, hi := j.b*n/blocks, (j.b+1)*n/blocks
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
				parts[j.b] = p
				close(done[j.b])
			}
		}()
	}
	go func() {
		for b := 0; b < blocks; b++ {
			jobs <- job{b, <-free}
		}
		close(jobs)
	}()

	// Fold shards in block-index order as they complete. Every shard's
	// store goes back even after a merge error, so neither a worker nor
	// the dispatcher is left waiting for one.
	final := newPartial(&cfg, newStore())
	var err error
	for b := 0; b < blocks; b++ {
		<-done[b]
		if err == nil {
			err = final.merge(parts[b])
		}
		parts[b].store.Reset()
		free <- parts[b].store
		parts[b] = nil
		if cfg.blockDone != nil {
			cfg.blockDone(b + 1)
		}
	}
	if err != nil {
		return nil, err
	}

	res := &Result{
		Functions:   n,
		Workers:     workers,
		Blocks:      blocks,
		Period:      cfg.Period,
		Resolution:  monitor.DefaultResolution,
		KeepAlive:   KeepAlive,
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
