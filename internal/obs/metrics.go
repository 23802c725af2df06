package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"

	"repro/internal/stats"
)

// Registry is the metrics side of the observability layer: named counters,
// gauges, and fixed-bucket latency histograms (stats.Histogram). All
// methods are nil-safe and safe for concurrent use; every accumulation is
// order-independent (sums and bucket counts), so concurrent writers cannot
// perturb determinism.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*stats.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*stats.Histogram),
	}
}

// Inc adds delta to a counter.
func (r *Registry) Inc(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = addCount(r.counters[name], delta)
}

// addCount adds delta to a counter value, saturating at the int64 limits
// instead of wrapping: registries that merge into each other repeatedly
// double their counts each round, and a wrapped counter would turn
// negative.
func addCount(c, delta int64) int64 {
	s := c + delta
	switch {
	case delta > 0 && s < c:
		return math.MaxInt64
	case delta < 0 && s > c:
		return math.MinInt64
	}
	return s
}

// SetGauge sets a gauge to v.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = v
}

// Observe records v into the named histogram, creating it on first use.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = stats.NewHistogram()
		r.hists[name] = h
	}
	h.Observe(v)
}

// Counter reads a counter (0 when absent or on a nil registry).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge reads a gauge (0 when absent).
func (r *Registry) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Histogram returns a merged copy of the named histogram (nil when absent),
// so callers can take quantiles without racing recorders.
func (r *Registry) Histogram(name string) *stats.Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		return nil
	}
	cp := stats.NewHistogram()
	cp.Merge(h)
	return cp
}

// Merge folds another registry into r: counters sum, gauges take o's value
// (last-writer-wins, matching sequential SetGauge order when merges happen
// in that order), histograms merge bucket-wise. Order-independent for
// counters and histograms; gauge determinism relies on callers merging in a
// fixed order. Nil-safe on both sides.
//
// o's state is copied out under its own lock before r's is taken — the two
// locks are never held together, so concurrent cross-merges (worker pools
// folding results both ways) cannot deadlock on acquisition order, and a
// mid-replay Snapshot on either side sees a consistent registry.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.mu.Lock()
	counters := make(map[string]int64, len(o.counters))
	for name, v := range o.counters {
		counters[name] = v
	}
	gauges := make(map[string]float64, len(o.gauges))
	for name, v := range o.gauges {
		gauges[name] = v
	}
	hists := make(map[string]*stats.Histogram, len(o.hists))
	for name, h := range o.hists {
		cp := stats.NewHistogram()
		cp.Merge(h)
		hists[name] = cp
	}
	o.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range counters {
		r.counters[name] = addCount(r.counters[name], v)
	}
	for name, v := range gauges {
		r.gauges[name] = v
	}
	for name, h := range hists {
		dst, ok := r.hists[name]
		if !ok {
			dst = stats.NewHistogram()
			r.hists[name] = dst
		}
		dst.Merge(h)
	}
}

// CounterSnapshot is one counter in a Snapshot.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge in a Snapshot.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnapshot summarizes one latency histogram with the percentiles
// the experiment tables quote.
type HistogramSnapshot struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time, deterministically-ordered (name-sorted)
// export of the registry.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry. Safe on a nil registry (empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range r.counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: name, Value: v})
	}
	for name, v := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: name, Value: v})
	}
	for name, h := range r.hists {
		snap.Histograms = append(snap.Histograms, HistogramSnapshot{
			Name:  name,
			Count: h.Count(),
			Sum:   h.Sum(),
			Min:   h.Min(),
			Max:   h.Max(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// JSON renders the snapshot as indented JSON (deterministic: slices are
// name-sorted and struct field order is fixed).
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
