package dd

import (
	"time"

	"repro/internal/obs"
)

// Options configures a minimization run beyond the algorithm's inputs.
type Options struct {
	// Tracer, when non-nil, records the minimization as a span tree:
	// one root per run, one span per DD round, and one span per executed
	// oracle call.
	Tracer *obs.Tracer
	// Now supplies the simulated timestamp for spans (e.g. the debloat
	// pipeline's virtual clock). Nil pins all spans to 0 but keeps the
	// structural tree and the metrics.
	Now func() time.Duration
}

// trace carries the per-run tracing state; a nil *trace disables
// everything, mirroring the nil-safety of obs itself.
type trace struct {
	tr   *obs.Tracer
	now  func() time.Duration
	root *obs.Span
	cur  *obs.Span // parent for oracle spans (current round, else root)
}

func newTrace(opts Options, items int) *trace {
	if opts.Tracer == nil {
		return nil
	}
	t := &trace{tr: opts.Tracer, now: opts.Now}
	t.root = t.tr.StartChild(nil, "dd minimize", "dd", t.clock())
	t.root.Add(obs.Int("items", int64(items)))
	t.cur = t.root
	return t
}

func (t *trace) clock() time.Duration {
	if t == nil || t.now == nil {
		return 0
	}
	return t.now()
}

// finish closes the run root and records the run-level counters.
func (t *trace) finish(kept int, stats Stats) {
	if t == nil {
		return
	}
	t.root.Add(
		obs.Int("kept", int64(kept)),
		obs.Int("tests", int64(stats.Tests)),
		obs.Int("cache_hits", int64(stats.CacheHits)),
		obs.Int("reductions", int64(stats.Reductions)),
	).Finish(t.clock())
	reg := t.tr.Metrics()
	reg.Inc("dd.runs", 1)
	reg.Inc("dd.tests", int64(stats.Tests))
	reg.Inc("dd.cache_hits", int64(stats.CacheHits))
	reg.Inc("dd.reductions", int64(stats.Reductions))
}

// startRound opens one DD round span at granularity n.
func (t *trace) startRound(round, n, current int) *obs.Span {
	if t == nil {
		return nil
	}
	sp := t.tr.StartChild(t.root, "round", "dd", t.clock())
	sp.Add(
		obs.Int("round", int64(round)),
		obs.Int("granularity", int64(n)),
		obs.Int("candidates", int64(current)),
	)
	t.cur = sp
	t.tr.Metrics().Inc("dd.rounds", 1)
	return sp
}

func (t *trace) endRound(sp *obs.Span, reduced bool, current int) {
	if t == nil {
		return
	}
	sp.Add(obs.Bool("reduced", reduced), obs.Int("remaining", int64(current))).
		Finish(t.clock())
	t.cur = t.root
}

// oracleCall records one executed (non-memoized) oracle call.
// It must bracket the call so the span extent covers the virtual time the
// oracle itself consumed.
func (t *trace) oracleCall(keep int, run func() bool) bool {
	if t == nil {
		return run()
	}
	start := t.clock()
	sp := t.tr.StartChild(t.cur, "oracle", "dd", start)
	pass := run()
	end := t.clock()
	sp.Add(obs.Int("keep", int64(keep)), obs.Bool("pass", pass)).Finish(end)
	t.tr.Metrics().Observe("dd.oracle.seconds", (end - start).Seconds())
	return pass
}

// cacheHit counts a memo-table answer (no span: nothing executed).
func (t *trace) cacheHit() {
	if t == nil {
		return
	}
	t.tr.Emit("dd.cache-hit", t.clock())
}
