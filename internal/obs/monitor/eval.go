package monitor

import "time"

// FoldSample records one invocation sample into a bare Store exactly the way
// Monitor.Observe does: the shared req.total/req.error/req.cold/cost.usd
// series plus one bad-event series per objective that carries its own
// threshold. It is the streaming half of the monitor split out for sharded
// replay: per-worker stores fed through FoldSample and merged in a fixed
// order hold byte-for-byte the same rollups a single Monitor observing the
// global sample sequence would hold, because every series value is a
// per-sample add and windows partition samples by time.
//
// slos should already carry their final parameters (withDefaults does not
// affect which series a sample lands in, so applying it is optional here).
func FoldSample(st *Store, at time.Duration, s Sample, slos []SLO) {
	if st == nil {
		return
	}
	st.Record(seriesTotal, at, s.E2E.Seconds())
	if s.Class != "ok" {
		st.Record(seriesErrors, at, 1)
	}
	if s.Cold {
		st.Record(seriesCold, at, 1)
	}
	st.Record(seriesCost, at, s.CostUSD)
	for _, def := range slos {
		if def.ownsBadSeries() && def.bad(&s) {
			st.Record(def.badSeries(), at, 1)
		}
	}
}

// SeriesNames binds the built-in sample series to one precomputed label
// set: high-rate producers (the fleet replay folds millions of samples) pay
// the LabeledSeries encoding once per label set instead of once per sample.
type SeriesNames struct {
	Total, Errors, Cold, Cost string
}

// NamedSeries precomputes the built-in series names for a label set.
func NamedSeries(labels ...Label) SeriesNames {
	return SeriesNames{
		Total:  LabeledSeries(seriesTotal, labels...),
		Errors: LabeledSeries(seriesErrors, labels...),
		Cold:   LabeledSeries(seriesCold, labels...),
		Cost:   LabeledSeries(seriesCost, labels...),
	}
}

// FoldSampleInto records one sample into a precomputed labeled series set,
// mirroring FoldSample's built-in series. Per-SLO bad series stay
// unlabeled (objectives are fleet-wide), so they are not duplicated here.
func FoldSampleInto(st *Store, at time.Duration, s Sample, names SeriesNames) {
	if st == nil {
		return
	}
	st.Record(names.Total, at, s.E2E.Seconds())
	if s.Class != "ok" {
		st.Record(names.Errors, at, 1)
	}
	if s.Cold {
		st.Record(names.Cold, at, 1)
	}
	st.Record(names.Cost, at, s.CostUSD)
}

// SampleSeries is a single-owner handle set over the series one sample
// folds into — FoldSample's built-in and per-objective bad series, or
// FoldSampleInto's labeled built-ins — resolved once so a high-rate
// producer folds each sample with no lock, no map lookup, and no name
// construction. Like every Handle it creates a series only on the first
// write, so Names and the exposition match the FoldSample path exactly.
// It is owned by one goroutine together with its store (see Store).
type SampleSeries struct {
	total, errors, cold, cost Handle
	bad                       []sloSeries
}

// sloSeries is one objective's bad-event handle.
type sloSeries struct {
	def SLO
	h   Handle
}

// SampleSeries prepares the handle set for a label set. With no labels
// and the replay's objectives it mirrors FoldSample; with labels (and no
// objectives — they are fleet-wide, so their bad series stay unlabeled) it
// mirrors FoldSampleInto over NamedSeries(labels...).
func (st *Store) SampleSeries(slos []SLO, labels ...Label) *SampleSeries {
	names := NamedSeries(labels...)
	f := &SampleSeries{
		total:  st.Handle(names.Total),
		errors: st.Handle(names.Errors),
		cold:   st.Handle(names.Cold),
		cost:   st.Handle(names.Cost),
	}
	for _, def := range slos {
		if def.ownsBadSeries() {
			f.bad = append(f.bad, sloSeries{def: def, h: st.Handle(def.badSeries())})
		}
	}
	return f
}

// Fold records one sample at `at`, exactly as FoldSample (or
// FoldSampleInto) would for the same store. A nil set records nothing.
func (f *SampleSeries) Fold(at time.Duration, s *Sample) {
	if f == nil {
		return
	}
	f.total.Record(at, s.E2E.Seconds())
	if s.Class != "ok" {
		f.errors.Record(at, 1)
	}
	if s.Cold {
		f.cold.Record(at, 1)
	}
	f.cost.Record(at, s.CostUSD)
	for i := range f.bad {
		if b := &f.bad[i]; b.def.bad(s) {
			b.h.Record(at, 1)
		}
	}
}

// burnOver computes an objective's burn rate over the trailing window ending
// at boundary T, reading the given store. Windows are clipped at the start
// of the run so early evaluations use the data that exists instead of
// diluting it with emptiness. This is the one burn-rate implementation: the
// live Monitor and the post-hoc EvaluateSLOs sweep both call it, so the two
// evaluation modes cannot drift apart.
func burnOver(st *Store, def SLO, T, window time.Duration) float64 {
	from := T - window
	if from < 0 {
		from = 0
	}
	if def.Kind == KindCostRate {
		if def.BudgetUSD <= 0 {
			return 0
		}
		hours := (T - from).Hours()
		if hours <= 0 {
			return 0
		}
		cost := st.Range(seriesCost, from, T)
		return (cost.Sum / hours) / def.BudgetUSD
	}
	total := st.Range(seriesTotal, from, T)
	if total.Count == 0 {
		return 0
	}
	bad := st.Range(def.badSeries(), from, T)
	frac := float64(bad.Count) / float64(total.Count)
	return frac / def.Budget
}

// EvaluateSLOs replays the boundary-tick evaluation over a finished store:
// every resolution boundary from the first one through the boundary that
// closes the window holding `latest` (the newest sample time) is evaluated
// in order, exactly as a live Monitor would have evaluated it while the
// samples streamed in. The two are equivalent because a boundary at T only
// reads windows strictly before T, and windows partition samples by
// timestamp — so evaluating after the fact sees the same rollups the online
// evaluation saw, provided the ring capacity covers the whole replay (size
// the store so nothing slides out).
//
// This is what makes sharded replay's telemetry exact rather than
// approximate: workers fold samples into private stores with FoldSample,
// the stores merge window-wise in a fixed order, and the alert log is
// recovered from the merged result byte-identically to a sequential run.
func EvaluateSLOs(st *Store, slos []SLO, latest time.Duration) ([]AlertEvent, []SLOFireCount) {
	res := st.Resolution()
	if res <= 0 || len(slos) == 0 {
		return nil, nil
	}
	states := make([]sloState, 0, len(slos))
	for _, def := range slos {
		states = append(states, sloState{def: def.withDefaults(res)})
	}
	if latest < 0 {
		latest = 0
	}
	end := (latest/res + 1) * res
	var alerts []AlertEvent
	for T := res; T <= end; T += res {
		for i := range states {
			st_ := &states[i]
			burnS := burnOver(st, st_.def, T, st_.def.ShortWindow)
			burnL := burnOver(st, st_.def, T, st_.def.LongWindow)
			firing := burnS >= st_.def.Burn && burnL >= st_.def.Burn
			if firing != st_.firing {
				st_.firing = firing
				if firing {
					st_.fired++
				}
				alerts = append(alerts, AlertEvent{
					At: T, SLO: st_.def.Name, Firing: firing,
					BurnShort: burnS, BurnLong: burnL,
				})
			}
		}
	}
	counts := make([]SLOFireCount, 0, len(states))
	for i := range states {
		counts = append(counts, SLOFireCount{
			Name: states[i].def.Name, Kind: states[i].def.Kind,
			Fired: states[i].fired, Firing: states[i].firing,
		})
	}
	return alerts, counts
}

// RenderAlertLog renders alert transitions as the canonical text log, one
// line per event ("" when no transitions occurred) — the same format
// Monitor.AlertLog produces.
func RenderAlertLog(alerts []AlertEvent) string {
	var b []byte
	for _, e := range alerts {
		b = append(b, e.String()...)
		b = append(b, '\n')
	}
	return string(b)
}
