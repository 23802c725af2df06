package monitor

import "time"

// SampleSeries is the one fold path: the live Monitor and every replay
// shard fold each sample through it. It is a handle set over the series
// one sample folds into — the shared req.total/req.error/req.cold/cost.usd
// series plus one bad-event series per objective that carries its own
// threshold, or the built-ins under a label set — resolved once, so each
// sample folds with no lock, no map lookup, and no name construction.
// Like every Handle it creates a series only on its first write. It is
// owned by one goroutine together with its store (see Store); the live
// Monitor writes and reads both under its mutex.
//
// Per-worker stores merged in a fixed order hold byte-for-byte the same
// rollups a single Monitor observing the global sample sequence would
// hold, because every series value is a per-sample add and windows
// partition samples by time.
type SampleSeries struct {
	total, errors, cold, cost Handle
	bad                       []sloSeries
}

// sloSeries is one objective's bad-event handle.
type sloSeries struct {
	def SLO
	h   Handle
}

// SampleSeries prepares the handle set for a label set. With no labels it
// records the built-in series and the objectives' bad series; with labels
// (and no objectives — they are fleet-wide, so their bad series stay
// unlabeled) it records the built-in series under their LabeledSeries
// names. withDefaults does not change which series a sample lands in, so
// slos need not carry their final parameters.
func (st *Store) SampleSeries(slos []SLO, labels ...Label) *SampleSeries {
	f := &SampleSeries{
		total:  st.Handle(LabeledSeries(seriesTotal, labels...)),
		errors: st.Handle(LabeledSeries(seriesErrors, labels...)),
		cold:   st.Handle(LabeledSeries(seriesCold, labels...)),
		cost:   st.Handle(LabeledSeries(seriesCost, labels...)),
	}
	for _, def := range slos {
		if def.ownsBadSeries() {
			f.bad = append(f.bad, sloSeries{def: def, h: st.Handle(def.badSeries())})
		}
	}
	return f
}

// Fold records one sample at `at`. A nil set records nothing.
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
// diluting it with emptiness.
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
// approximate: workers fold samples into private stores through
// SampleSeries, the stores merge window-wise in a fixed order, and the
// alert log is recovered from the merged result byte-identically to a
// sequential run.
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
			if e, ok := states[i].step(st, T); ok {
				alerts = append(alerts, e)
			}
		}
	}
	return alerts, fireCounts(states)
}

// RenderAlertLog renders alert transitions as the canonical text log, one
// line per event ("" when no transitions occurred). Monitor.AlertLog and
// the fleet result render through it.
func RenderAlertLog(alerts []AlertEvent) string {
	var b []byte
	for _, e := range alerts {
		b = append(b, e.String()...)
		b = append(b, '\n')
	}
	return string(b)
}
