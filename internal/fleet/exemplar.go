package fleet

import (
	"strconv"
	"time"
)

// Exemplar is one concrete invocation kept as evidence behind the
// aggregates: the rollups say "p99 got worse", an exemplar names a
// function, a time, and a bill you can go look at. The engine keeps three
// small sets — the slowest invocations, the most expensive ones, and a
// seed-keyed uniform sample — all selected under total orders so the
// chosen sets are properties of the sample multiset, not of the fold
// schedule.
type Exemplar struct {
	Function  string
	Archetype string
	Arm       string
	// At is the completion time on the virtual timeline; Init the init
	// phase the invocation paid (0 warm).
	At      time.Duration
	Init    time.Duration
	E2E     time.Duration
	CostUSD float64
	Cold    bool

	// seq is the invocation's index within its function; (Function, seq)
	// is unique, which is what makes every comparator a total order.
	seq uint64
	// key is the invocation's sampling key: a seed-keyed hash, uniform
	// over invocations and independent of sharding, so "keep the k
	// smallest keys" is a uniform random sample that every worker count
	// agrees on.
	key uint64
	// span is the invocation's span identity (a further hash round off
	// key, so sampling order and identity stay uncorrelated); SpanID is
	// its rendered form.
	span uint64
}

// SpanID renders the invocation's stable span identity as 16 hex digits.
// The span tree EmitSpans builds for the exemplar sets carries the same
// IDs, so an exemplar annotation in the OpenMetrics exposition resolves
// via obs.Tracer.FindSpan to the subtree explaining the outlier. Derived
// from (replay seed, function ID, seq) only — identical at any worker
// count, like every other replay artifact.
func (e Exemplar) SpanID() string {
	if e.span == 0 {
		return ""
	}
	s := strconv.FormatUint(e.span, 16)
	for len(s) < 16 {
		s = "0" + s
	}
	return s
}

// exemplarSpanKey derives the span identity from the sampling key with one
// more mix round (never 0, which SpanID reserves for "no identity").
func exemplarSpanKey(sampleKey uint64) uint64 {
	k := splitmix64(sampleKey ^ 0xD6E8FEB86659FD93)
	if k == 0 {
		k = 1
	}
	return k
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit
// permutation (Steele et al., "Fast splittable pseudorandom number
// generators").
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// exemplarFnKey mixes the replay seed with a function ID; the per-sample
// key then mixes in the invocation's sequence number. Two hash rounds
// keep consecutive (ID, seq) pairs uncorrelated.
func exemplarFnKey(seed int64, fnID int) uint64 {
	return splitmix64(uint64(seed) ^ uint64(fnID)*0x9E3779B97F4A7C15)
}

func exemplarSampleKey(fnKey uint64, seq uint64) uint64 {
	return splitmix64(fnKey ^ seq)
}

// exemplarOrder names the strict total order an exemplarSet ranks by.
type exemplarOrder uint8

const (
	slowestFirst  exemplarOrder = iota // E2E descending
	priciestFirst                      // cost descending
	sampledFirst                       // sampling key ascending
)

// exemplarSet keeps the k best exemplars under a strict total order,
// sorted best-first. Offering every element of one set into another
// yields the k best of the union, so sets merge associatively and
// order-independently.
type exemplarSet struct {
	k     int
	order exemplarOrder
	items []Exemplar
}

// less reports whether a ranks strictly ahead of b. A static switch rather
// than a func value: offer runs three times per invocation, and a pointer
// passed to an unknown function escapes to the heap.
func (s *exemplarSet) less(a, b *Exemplar) bool {
	switch s.order {
	case slowestFirst:
		if a.E2E != b.E2E {
			return a.E2E > b.E2E
		}
	case priciestFirst:
		if a.CostUSD != b.CostUSD {
			return a.CostUSD > b.CostUSD
		}
	default:
		if a.key != b.key {
			return a.key < b.key
		}
	}
	return tiebreak(a, b)
}

// offer inserts *e if it ranks among the k best; e is copied, never
// retained.
func (s *exemplarSet) offer(e *Exemplar) {
	if len(s.items) == s.k && !s.less(e, &s.items[s.k-1]) {
		return // worse than the current worst: the common case, one compare
	}
	lo, hi := 0, len(s.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.less(e, &s.items[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if len(s.items) < s.k {
		s.items = append(s.items, Exemplar{})
	}
	copy(s.items[lo+1:], s.items[lo:])
	s.items[lo] = *e
}

func (s *exemplarSet) mergeFrom(o *exemplarSet) {
	for i := range o.items {
		s.offer(&o.items[i])
	}
}

// sorted returns the kept exemplars, best first.
func (s *exemplarSet) sorted() []Exemplar {
	return append([]Exemplar(nil), s.items...)
}

// tiebreak orders two exemplars by (At, Function, seq) — a strict total
// order used to break primary-criterion ties deterministically.
func tiebreak(a, b *Exemplar) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Function != b.Function {
		return a.Function < b.Function
	}
	return a.seq < b.seq
}

// exemplars bundles the three per-shard sets.
type exemplars struct {
	slowest  exemplarSet
	priciest exemplarSet
	sampled  exemplarSet
}

func newExemplars(k int, seed int64) *exemplars {
	return &exemplars{
		slowest:  exemplarSet{k: k, order: slowestFirst},
		priciest: exemplarSet{k: k, order: priciestFirst},
		sampled:  exemplarSet{k: k, order: sampledFirst},
	}
}

func (x *exemplars) offer(e *Exemplar) {
	x.slowest.offer(e)
	x.priciest.offer(e)
	x.sampled.offer(e)
}

func (x *exemplars) merge(o *exemplars) {
	if o == nil {
		return
	}
	x.slowest.mergeFrom(&o.slowest)
	x.priciest.mergeFrom(&o.priciest)
	x.sampled.mergeFrom(&o.sampled)
}
