package query

import (
	"time"

	"repro/internal/obs/monitor"
)

// source answers the window reads of one evaluation. Both methods read a
// series over [from, to) exactly as Store.Range and Store.Scan do.
type source interface {
	// rollup is the fold of the windows.
	rollup(name string, from, to time.Duration) monitor.Rollup
	// means lists the means of the non-empty windows in ascending window
	// order. The caller may sort the slice in place, but must be done with
	// it before its next read.
	means(name string, from, to time.Duration) []float64
}

// point is the source of a single evaluation: every read folds its whole
// interval.
type point struct{ st *monitor.Store }

func (p point) rollup(name string, from, to time.Duration) monitor.Rollup {
	return p.st.Range(name, from, to)
}

func (p point) means(name string, from, to time.Duration) []float64 {
	return appendMeans(nil, p.st, name, from, to)
}

// sweep is the source of a range query, which evaluates one expression at
// ascending boundaries. A rollup read whose window starts at 0 (a bare
// selector, or a range call while the boundary lies within its window)
// keeps what it has folded so far, and at the next boundary folds only the
// windows since the previous one. Store.Scan visits them in the ascending
// order in which Store.Range merges, so every value is bit-identical to
// point's. A read whose window starts later is re-read whole: sliding a sum
// by subtracting the windows that left it would change its rounding. A
// quantile re-reads its window into one buffer kept for the whole range:
// sorting the means costs more than scanning them.
//
// Reads must come at non-decreasing boundaries, as Range's do.
type sweep struct {
	st       *monitor.Store
	prefixes map[string]*prefix // by series name
	buf      []float64
}

// prefix is a carried read: the fold of a series' windows before `to`.
type prefix struct {
	to time.Duration
	r  monitor.Rollup
}

func (s *sweep) rollup(name string, from, to time.Duration) monitor.Rollup {
	if from != 0 {
		return s.st.Range(name, from, to)
	}
	p := s.prefixes[name]
	if p == nil {
		if s.prefixes == nil {
			s.prefixes = make(map[string]*prefix)
		}
		p = new(prefix)
		s.prefixes[name] = p
	}
	s.st.Scan(name, p.to, to, func(_ time.Duration, r monitor.Rollup) { p.r.Merge(r) })
	p.to = to
	return p.r
}

func (s *sweep) means(name string, from, to time.Duration) []float64 {
	s.buf = appendMeans(s.buf[:0], s.st, name, from, to)
	return s.buf
}

// appendMeans appends the means of the non-empty windows of a series over
// [from, to) to vs, in ascending window order.
func appendMeans(vs []float64, st *monitor.Store, name string, from, to time.Duration) []float64 {
	st.Scan(name, from, to, func(_ time.Duration, r monitor.Rollup) {
		if r.Count > 0 {
			vs = append(vs, r.Mean())
		}
	})
	return vs
}
