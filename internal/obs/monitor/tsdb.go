// Package monitor is the operational-observability layer over the
// simulator: a ring-buffer time-series store on the simulated timeline, an
// SLO engine with multi-window burn-rate alerting, a cost-attribution
// ledger decomposing Eq.-1 bills into phases, and deterministic exporters
// (OpenMetrics exposition, periodic text dashboards).
//
// Where package obs answers "what happened" after a run, monitor watches a
// replay as it unfolds: every sample carries a virtual timestamp, alert
// evaluation happens at fixed resolution boundaries of that timeline, and
// all output is a pure function of the sample sequence — a fixed seed
// reproduces the alert log, dashboard, and exposition byte-for-byte. All
// entry points are nil-safe, so an unmonitored run executes the
// instrumented code paths unchanged.
package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Rollup is one window's (or one aggregation's) mergeable summary. Sums
// and counts are order-independent; Max is idempotent under merge — the
// three together are what keeps per-worker stores mergeable without
// perturbing determinism.
type Rollup struct {
	Count uint64
	Sum   float64
	Max   float64
}

func (r *Rollup) add(v float64) {
	if r.Count == 0 || v > r.Max {
		r.Max = v
	}
	r.Count++
	r.Sum += v
}

func (r *Rollup) merge(o Rollup) {
	if o.Count == 0 {
		return
	}
	if r.Count == 0 || o.Max > r.Max {
		r.Max = o.Max
	}
	r.Count += o.Count
	r.Sum += o.Sum
}

// Merge folds another rollup into r (sums add, max folds idempotently) —
// the same combine Store.Merge applies window-wise, exported for callers
// accumulating window scans outside the package.
func (r *Rollup) Merge(o Rollup) { r.merge(o) }

// Mean is the windowed average (0 when empty).
func (r Rollup) Mean() float64 {
	if r.Count == 0 {
		return 0
	}
	return r.Sum / float64(r.Count)
}

// series is one named metric's ring of fixed-resolution windows plus its
// cumulative (ring-independent) total.
//
// Only the windows [latest−cap+1, latest] (those at or above 0) are ever
// read: Range, Scan and Merge clip to them. A series starts at latest −1,
// and record and Merge zero every window they advance latest over before
// writing it (Store.advance). So a ring holds no readable window it did
// not write, and a series may start on a ring another series left dirty
// (Store.Reset).
type series struct {
	ring    []Rollup
	latest  int64 // highest absolute window index written; -1 when empty
	slot    int   // latest's ring index, latest mod cap (when latest ≥ 0)
	total   Rollup
	dropped uint64 // samples older than the ring reach at write time
}

// Store is a deterministic time-series database over simulated time:
// samples land in fixed-resolution windows held in a per-series ring
// buffer, with sum/count/max rollups. Two stores with the same geometry
// merge window-wise, so per-worker stores can be folded in a fixed order
// without changing any queryable value. All methods are nil-safe.
//
// Concurrency contract: every Store method locks, so Record, the readers,
// and Merge are safe for concurrent use. A Handle is the exception: it is
// a single-owner write path that records without the lock, so while any
// handle of a store writes, nothing else may touch that store — no reads,
// no Record, no other goroutine's handle. A replay shard owns its store
// exclusively until it hands it to the merger, which is exactly that
// contract. A live Monitor writes through handles only under its own
// mutex, and its methods read the store under that mutex too.
type Store struct {
	mu     sync.Mutex
	res    time.Duration
	cap    int
	series map[string]*series
	// free holds the series Reset emptied; new series take their rings.
	free []*series
}

// DefaultResolution and DefaultWindows keep a day of one-minute windows.
const (
	DefaultResolution = time.Minute
	DefaultWindows    = 24 * 60
)

// NewStore creates a store with the given window resolution and ring
// capacity; non-positive arguments take the defaults.
func NewStore(resolution time.Duration, windows int) *Store {
	if resolution <= 0 {
		resolution = DefaultResolution
	}
	if windows <= 0 {
		windows = DefaultWindows
	}
	return &Store{res: resolution, cap: windows, series: make(map[string]*series)}
}

// Resolution returns the window size.
func (s *Store) Resolution() time.Duration {
	if s == nil {
		return 0
	}
	return s.res
}

// windowIndex maps a timestamp to its absolute window index. Negative
// timestamps clamp to window 0: the simulated timeline starts at zero, so a
// negative `at` can only come from caller arithmetic underflow (e.g. a
// trailing window reaching before the run began), and folding it into the
// first window keeps such samples queryable instead of corrupting the ring
// with a negative index (int64 division would otherwise round toward zero
// and alias windows -res..res onto index 0 while windows further back went
// negative).
func (s *Store) windowIndex(at time.Duration) int64 {
	if at < 0 {
		at = 0
	}
	return int64(at / s.res)
}

func (s *Store) getSeries(name string) *series {
	se, ok := s.series[name]
	if !ok {
		if n := len(s.free); n > 0 {
			se, s.free = s.free[n-1], s.free[:n-1]
			*se = series{ring: se.ring, latest: -1}
		} else {
			se = &series{ring: make([]Rollup, s.cap), latest: -1}
		}
		s.series[name] = se
	}
	return se
}

// Reset empties the store: afterwards it reads like a fresh store of the
// same geometry, and its next series reuse the emptied series' rings
// without clearing them (see series). No Handle or SampleSeries taken
// before Reset may be used after it. A replay shard's store is reset once
// the merger has folded it, and the next shard records into it.
func (s *Store) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, se := range s.series {
		s.free = append(s.free, se)
	}
	clear(s.series)
}

// Record lands one sample in the window containing `at`. Samples newer
// than the latest window advance the ring (zeroing skipped windows);
// samples older than the ring's reach are counted as dropped but still
// accumulate into the cumulative total.
func (s *Store) Record(name string, at time.Duration, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.record(s.getSeries(name), at, v)
}

// record is Record's body for an already-resolved series. The ring
// geometry (res, cap) never changes after NewStore, so this needs no lock
// beyond whatever keeps se single-writer.
func (s *Store) record(se *series, at time.Duration, v float64) {
	se.total.add(v)
	w := s.windowIndex(at)
	if w > se.latest {
		s.advance(se, w)
	} else if w <= se.latest-int64(s.cap) {
		se.dropped++
		return
	}
	// w is within cap windows of latest, so one wrap finds its slot.
	i := se.slot - int(se.latest-w)
	if i < 0 {
		i += s.cap
	}
	se.ring[i].add(v)
}

// advance moves a series' latest window up to w > se.latest. It zeroes
// the slots of the windows latest+1 through w (ring slots are reused, so
// stale rollups must not leak into new windows): the whole ring when that
// is cap windows or more, else one run of slots that wraps at most once.
func (s *Store) advance(se *series, w int64) {
	slot := int(w % int64(s.cap))
	if n := w - se.latest; n >= int64(s.cap) {
		clear(se.ring)
	} else if from := slot - int(n) + 1; from >= 0 {
		clear(se.ring[from : slot+1])
	} else {
		clear(se.ring[from+s.cap:])
		clear(se.ring[:slot+1])
	}
	se.latest, se.slot = w, slot
}

// Handle is a single-owner write handle to one series: the first Record
// resolves the series under the store lock, and every later Record lands
// with no lock and no map lookup. A handle that never records creates no
// series, so preparing handles up front leaves Names, the exposition, and
// every query unchanged. Writes through a handle are indistinguishable
// from Store.Record writes of the same (at, v) sequence — same rollups,
// totals, and dropped counts. See Store for the ownership contract; the
// zero Handle and a handle on a nil store record nothing.
type Handle struct {
	st   *Store
	name string
	se   *series
}

// Handle returns an unresolved write handle to the named series.
func (s *Store) Handle(name string) Handle { return Handle{st: s, name: name} }

// Record lands one sample, exactly as Store.Record would.
func (h *Handle) Record(at time.Duration, v float64) {
	if h.se == nil {
		if h.st == nil {
			return
		}
		h.st.mu.Lock()
		h.se = h.st.getSeries(h.name)
		h.st.mu.Unlock()
	}
	h.st.record(h.se, at, v)
}

// Range aggregates every window the interval [from, to) touches: from's
// window through the window holding to-1, whole, so an endpoint between
// boundaries brings in its entire window. Windows that have slid out of
// the ring contribute nothing (their samples remain in Total). A missing
// series yields a zero rollup.
func (s *Store) Range(name string, from, to time.Duration) Rollup {
	var out Rollup
	if s == nil || to <= from {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.series[name]
	if !ok || se.latest < 0 {
		return out
	}
	lo := s.windowIndex(from)
	hi := s.windowIndex(to - 1) // inclusive window of the last covered instant
	if min := se.latest - int64(s.cap) + 1; lo < min {
		lo = min
	}
	if lo < 0 {
		lo = 0
	}
	if hi > se.latest {
		hi = se.latest
	}
	for w := lo; w <= hi; w++ {
		out.merge(se.ring[w%int64(s.cap)])
	}
	return out
}

// Scan visits the in-ring windows of a series intersecting [from, to) in
// ascending time order, calling fn with each window's start offset and its
// rollup (empty windows included — a window the timeline skipped is a real
// zero observation, which is what per-window quantiles need). Windows that
// slid out of the ring and windows past the series' latest write are not
// visited. fn runs under the store lock: it must not call back into the
// store (record rule output after the scan returns, not inside it). This
// is the query engine's window-scan primitive; Range is the fused
// aggregate of the same walk.
func (s *Store) Scan(name string, from, to time.Duration, fn func(start time.Duration, r Rollup)) {
	if s == nil || to <= from {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.series[name]
	if !ok || se.latest < 0 {
		return
	}
	lo := s.windowIndex(from)
	hi := s.windowIndex(to - 1)
	if min := se.latest - int64(s.cap) + 1; lo < min {
		lo = min
	}
	if lo < 0 {
		lo = 0
	}
	if hi > se.latest {
		hi = se.latest
	}
	for w := lo; w <= hi; w++ {
		fn(time.Duration(w)*s.res, se.ring[w%int64(s.cap)])
	}
}

// Total returns the series' cumulative rollup across the whole run,
// including samples that have slid out of the ring.
func (s *Store) Total(name string) Rollup {
	if s == nil {
		return Rollup{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.series[name]
	if !ok {
		return Rollup{}
	}
	return se.total
}

// Dropped returns how many samples arrived too old for the ring.
func (s *Store) Dropped(name string) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.series[name]
	if !ok {
		return 0
	}
	return se.dropped
}

// Names returns the recorded series names, sorted.
func (s *Store) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.series))
	for name := range s.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Merge folds another store window-wise into s by absolute window index.
// Both stores must share resolution and capacity (the caller constructs
// per-worker stores from one config); mismatched geometry returns an
// explicit error with nothing folded — absolute window indices only line up
// when both rings share a resolution, so a silent partial merge would
// corrupt every series. A nil s or o is a no-op (nil monitor semantics).
// o must not be written concurrently: its series are read in place, without
// copying the rings, after its lock is released.
func (s *Store) Merge(o *Store) error {
	if s == nil || o == nil {
		return nil
	}
	// Collect o's series under its own lock, then fold under ours — never
	// holding both (see Registry.Merge for the deadlock this avoids).
	o.mu.Lock()
	if o.res != s.res || o.cap != s.cap {
		ores, ocap := o.res, o.cap
		o.mu.Unlock()
		return fmt.Errorf("monitor: Store.Merge geometry mismatch: %v×%d windows into %v×%d",
			ores, ocap, s.res, s.cap)
	}
	names := make([]string, 0, len(o.series))
	for name := range o.series {
		names = append(names, name)
	}
	srcs := make([]*series, len(names))
	sort.Strings(names)
	for i, name := range names {
		srcs[i] = o.series[name]
	}
	o.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	for i, src := range srcs {
		dst := s.getSeries(names[i])
		dst.total.merge(src.total)
		dst.dropped += src.dropped
		if src.latest < 0 {
			continue
		}
		if src.latest > dst.latest {
			s.advance(dst, src.latest)
		}
		lo := src.latest - int64(s.cap) + 1
		if min := dst.latest - int64(s.cap) + 1; lo < min {
			lo = min
		}
		if lo < 0 {
			lo = 0
		}
		// Both rings hold lo within cap windows of their latest, so each
		// walk from lo's slot wraps at most once.
		si, di := src.slot-int(src.latest-lo), dst.slot-int(dst.latest-lo)
		if si < 0 {
			si += s.cap
		}
		if di < 0 {
			di += s.cap
		}
		for w := lo; w <= src.latest; w++ {
			dst.ring[di].merge(src.ring[si])
			if si++; si == s.cap {
				si = 0
			}
			if di++; di == s.cap {
				di = 0
			}
		}
	}
	return nil
}
