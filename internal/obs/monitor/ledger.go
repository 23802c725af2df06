package monitor

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase is one aggregation bucket of the cost-attribution ledger: Eq.-1
// dollars decomposed into the billed phases of Figure 1. For every
// invocation,
//
//	CostUSD = InitUSD + ExecUSD + IdleUSD + RestoreUSD
//
// where Init and Exec split the duration bill pro rata over the billed
// init and handler durations, Idle is the rounding waste the provider's
// billing granularity adds on top (billed duration minus measured
// duration — zero on AWS's 1 ms rounding, up to a second on Azure's), and
// Restore is SnapStart's per-restore fee.
type Phase struct {
	Invocations uint64
	ColdStarts  uint64
	Errors      uint64

	BilledInit time.Duration
	BilledExec time.Duration
	BilledIdle time.Duration

	InitUSD    float64
	ExecUSD    float64
	IdleUSD    float64
	RestoreUSD float64
}

// CostUSD is the bucket's total bill.
func (p Phase) CostUSD() float64 {
	return p.InitUSD + p.ExecUSD + p.IdleUSD + p.RestoreUSD
}

// PhaseOf is one sample's contribution to a bucket: one invocation, its
// cold start and error, its billed phases plus the rounding idle, and its
// dollars. It is the ledger's one definition of the pro-rata split: the
// duration bill (the cost less the restore fee) divides over BilledInit
// and BilledExec in proportion to Billed, and the remainder is idle.
// Ledger.Record adds it to the sample's bucket; a caller feeding several
// rows and series computes it once and adds it to each (Row.Add).
func PhaseOf(s *Sample) Phase {
	c := Phase{Invocations: 1, BilledInit: s.BilledInit, BilledExec: s.BilledExec, RestoreUSD: s.RestoreFeeUSD}
	if s.Cold {
		c.ColdStarts = 1
	}
	if s.Class != "ok" {
		c.Errors = 1
	}
	if idle := s.Billed - s.BilledInit - s.BilledExec; idle > 0 {
		c.BilledIdle = idle
	}
	if durUSD := s.CostUSD - s.RestoreFeeUSD; s.Billed > 0 && durUSD > 0 {
		c.InitUSD = durUSD * float64(s.BilledInit) / float64(s.Billed)
		c.ExecUSD = durUSD * float64(s.BilledExec) / float64(s.Billed)
		c.IdleUSD = durUSD - c.InitUSD - c.ExecUSD
	}
	return c
}

// merge adds o to p field by field. A sample's contribution leaves a
// dollar field at +0 where it has no share; adding +0 leaves every sum
// unchanged, because a sum that starts at +0 never holds −0.
func (p *Phase) merge(o *Phase) {
	p.Invocations += o.Invocations
	p.ColdStarts += o.ColdStarts
	p.Errors += o.Errors
	p.BilledInit += o.BilledInit
	p.BilledExec += o.BilledExec
	p.BilledIdle += o.BilledIdle
	p.InitUSD += o.InitUSD
	p.ExecUSD += o.ExecUSD
	p.IdleUSD += o.IdleUSD
	p.RestoreUSD += o.RestoreUSD
}

// Ledger aggregates per-invocation cost decompositions per function,
// answering "where does the money go" as a first-class query. All read-out
// is name-sorted and deterministic.
//
// Concurrency contract: every Ledger method locks and is safe for
// concurrent use. A Row is a single-owner write path that records without
// the lock, so while any row of a ledger writes, nothing else may touch
// that ledger — the same ownership a replay shard has over its private
// ledgers until it hands them to the merger.
type Ledger struct {
	mu    sync.Mutex
	perFn map[string]*Phase
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{perFn: make(map[string]*Phase)} }

// Record attributes one invocation sample.
func (l *Ledger) Record(s Sample) {
	if l == nil {
		return
	}
	c := PhaseOf(&s)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.phase(s.Function).merge(&c)
}

// Row is a single-owner write handle to one ledger row: the first Add
// resolves the row under the ledger lock, later ones add with no lock and
// no map lookup. The row's name keys the bucket, and a row that never adds
// creates no bucket. See Ledger for the ownership contract; a row on a nil
// ledger records nothing.
type Row struct {
	l    *Ledger
	name string
	ph   *Phase
}

// Row returns an unresolved write handle to the named row.
func (l *Ledger) Row(name string) Row { return Row{l: l, name: name} }

// Add attributes one sample's contribution (PhaseOf) to the row.
func (r *Row) Add(c *Phase) {
	if r.ph == nil {
		if r.l == nil {
			return
		}
		r.l.mu.Lock()
		r.ph = r.l.phase(r.name)
		r.l.mu.Unlock()
	}
	r.ph.merge(c)
}

// phase returns the named bucket, creating it; the caller holds l.mu.
func (l *Ledger) phase(name string) *Phase {
	ph, ok := l.perFn[name]
	if !ok {
		ph = &Phase{}
		l.perFn[name] = ph
	}
	return ph
}

// Functions returns the attributed function names, sorted.
func (l *Ledger) Functions() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.perFn))
	for name := range l.perFn {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Function returns one function's bucket (zero when absent).
func (l *Ledger) Function(name string) Phase {
	if l == nil {
		return Phase{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ph, ok := l.perFn[name]; ok {
		return *ph
	}
	return Phase{}
}

// Total folds every function's bucket into one, in name order — the fold
// order is fixed so the floating-point dollar sums are reproducible across
// processes rather than subject to map iteration order.
func (l *Ledger) Total() Phase {
	if l == nil {
		return Phase{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.perFn))
	for name := range l.perFn {
		names = append(names, name)
	}
	sort.Strings(names)
	var out Phase
	for _, name := range names {
		out.merge(l.perFn[name])
	}
	return out
}

// Merge folds another ledger into l (for per-worker ledgers; fold in a
// fixed order). o's data is copied out under its own lock first.
func (l *Ledger) Merge(o *Ledger) {
	if l == nil || o == nil {
		return
	}
	o.mu.Lock()
	type snap struct {
		name string
		ph   Phase
	}
	snaps := make([]snap, 0, len(o.perFn))
	for name, ph := range o.perFn {
		snaps = append(snaps, snap{name, *ph})
	}
	o.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].name < snaps[j].name })

	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range snaps {
		l.phase(snaps[i].name).merge(&snaps[i].ph)
	}
}

// ModuleWeight is a caller-supplied share of a function's initialization
// (typically a profiler module's marginal import time). Weights need not
// be normalized.
type ModuleWeight struct {
	Name   string
	Weight float64
}

// ModuleCost is one module's share of a function's init-phase dollars.
type ModuleCost struct {
	Name  string
	USD   float64
	Share float64 // fraction of the init bill
}

// AttributeInit splits a function's init-phase dollars (init + restore)
// across modules proportionally to the given weights — the per-module
// "where does the init money go" view, with weights from the profiler's
// marginal import measurements. Rows come back largest-first with a
// deterministic name tiebreak; non-positive weights are dropped.
func (l *Ledger) AttributeInit(fn string, weights []ModuleWeight) []ModuleCost {
	ph := l.Function(fn)
	initUSD := ph.InitUSD + ph.RestoreUSD
	var totalW float64
	for _, w := range weights {
		if w.Weight > 0 {
			totalW += w.Weight
		}
	}
	if totalW <= 0 || initUSD <= 0 {
		return nil
	}
	out := make([]ModuleCost, 0, len(weights))
	for _, w := range weights {
		if w.Weight <= 0 {
			continue
		}
		share := w.Weight / totalW
		out = append(out, ModuleCost{Name: w.Name, USD: initUSD * share, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].USD != out[j].USD {
			return out[i].USD > out[j].USD
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// RenderTable renders the per-function phase decomposition as an aligned
// text table, functions sorted by total bill (largest first, name
// tiebreak), with a totals row.
func (l *Ledger) RenderTable() string {
	if l == nil {
		return ""
	}
	names := l.Functions()
	type row struct {
		name string
		ph   Phase
	}
	rows := make([]row, 0, len(names))
	for _, n := range names {
		rows = append(rows, row{n, l.Function(n)})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		ci, cj := rows[i].ph.CostUSD(), rows[j].ph.CostUSD()
		if ci != cj {
			return ci > cj
		}
		return rows[i].name < rows[j].name
	})

	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %5s %4s %12s %12s %12s %12s %12s %6s\n",
		"Function", "Invoc", "Cold", "Err", "Init$", "Handler$", "Idle$", "Restore$", "Total$", "Init%")
	write := func(name string, ph Phase) {
		total := ph.CostUSD()
		initShare := 0.0
		if total > 0 {
			initShare = (ph.InitUSD + ph.RestoreUSD) / total
		}
		fmt.Fprintf(&b, "%-24s %6d %5d %4d %12.9f %12.9f %12.9f %12.9f %12.9f %5.1f%%\n",
			name, ph.Invocations, ph.ColdStarts, ph.Errors,
			ph.InitUSD, ph.ExecUSD, ph.IdleUSD, ph.RestoreUSD, total, 100*initShare)
	}
	for _, r := range rows {
		write(r.name, r.ph)
	}
	if len(rows) > 1 {
		write("TOTAL", l.Total())
	}
	return b.String()
}
