// Package obs is the deterministic observability layer for the simulator
// and the λ-trim pipeline: hierarchical spans and a metrics registry driven
// entirely by simulated clocks (never time.Now()), so that identical seeds
// produce byte-identical telemetry.
//
// Every timestamp entering this package is an offset on some caller-owned
// simulated timeline (the platform clock, an interpreter clock, or the
// debloater's virtual time); the tracer itself never reads a clock. All
// entry points are nil-safe: a nil *Tracer (the default in every Config)
// makes every call a no-op, so untraced runs execute the instrumented code
// paths unchanged.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Attr is one key/value attribute on a span or event. Values are
// pre-formatted strings so that rendering is deterministic and the same
// attribute list can back both the JSONL event log and the k=v log lines.
type Attr struct {
	Key string
	Val string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Val: fmt.Sprintf("%d", v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Val: fmt.Sprintf("%t", v)} }

// DurationUS builds a duration attribute rendered as integer microseconds
// (the canonical duration unit of the event log).
func DurationUS(k string, d time.Duration) Attr {
	return Attr{Key: k, Val: fmt.Sprintf("%d", d.Microseconds())}
}

// Span is one node of the trace tree: a named interval of simulated time
// with attributes and children. Fields are exported for exporters and
// tests; mutate through the Tracer while a trace is being recorded.
type Span struct {
	Name  string
	Cat   string
	Start time.Duration
	End   time.Duration
	// ID optionally names the span for cross-referencing from outside the
	// trace tree (OpenMetrics exemplars carry span IDs). Producers derive
	// IDs deterministically from their own seeds; "" means unindexed.
	ID    string
	Attrs []Attr
	// Children are in creation order, which instrumentation keeps
	// deterministic (concurrent layers create child spans only at
	// deterministic synchronization points).
	Children []*Span
}

// Add appends attributes to the span. Nil-safe; returns s for chaining.
func (s *Span) Add(attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, attrs...)
	return s
}

// Finish closes a span created with StartChild by setting its end time.
// Nil-safe. Spans opened with Tracer.Start should be closed with
// Tracer.End instead so the span stack unwinds.
func (s *Span) Finish(at time.Duration) {
	if s == nil {
		return
	}
	s.End = at
}

// Dur is the span's duration (0 while open or for instant spans).
func (s *Span) Dur() time.Duration {
	if s == nil || s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Event is one instant record on the timeline (fault injections, throttle
// rejections, cache hits, and the canonical per-invocation log records).
type Event struct {
	Name  string
	Time  time.Duration
	Attrs []Attr
}

// Tracer records a per-run trace tree, an event log, and a metrics
// registry. A single tracer may span several simulated timelines (the
// debloat pipeline's virtual time, then each platform's clock); exporters
// preserve timestamps as given.
//
// Single-threaded layers use the Start/End stack discipline; concurrent
// layers attach spans to explicit parents with StartChild at deterministic
// points. The tracer serializes all mutation internally.
type Tracer struct {
	mu     sync.Mutex
	roots  []*Span
	stack  []*Span
	events []Event
	reg    *Registry
}

// New returns an empty tracer with a fresh metrics registry.
func New() *Tracer { return &Tracer{reg: NewRegistry()} }

// Metrics returns the tracer's registry (nil for a nil tracer; the
// registry's methods are nil-safe in turn).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Start opens a span at simulated time `at` as a child of the innermost
// open span (or as a new root) and pushes it on the span stack.
func (t *Tracer) Start(name, cat string, at time.Duration) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, Cat: cat, Start: at, End: at}
	t.attach(s, nil)
	t.stack = append(t.stack, s)
	return s
}

// End closes a span and pops the stack down through it. If s was created
// with StartChild (not on the stack), only its end time is set. Nil-safe.
func (t *Tracer) End(s *Span, at time.Duration) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.End = at
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			t.stack = t.stack[:i]
			return
		}
	}
}

// StartChild opens a span under an explicit parent without touching the
// span stack — for layers that interleave several logical flows (retry
// groups). A nil parent attaches to the innermost open span, or as a root.
// Close with (*Span).Finish.
func (t *Tracer) StartChild(parent *Span, name, cat string, at time.Duration) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{Name: name, Cat: cat, Start: at, End: at}
	t.attach(s, parent)
	return s
}

// attach links s under parent, the stack top, or the root list.
// Callers hold t.mu.
func (t *Tracer) attach(s *Span, parent *Span) {
	if parent == nil && len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	if parent != nil {
		parent.Children = append(parent.Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
}

// Current returns the innermost open stack span (nil when none).
func (t *Tracer) Current() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return nil
	}
	return t.stack[len(t.stack)-1]
}

// Emit appends one instant event to the event log.
func (t *Tracer) Emit(name string, at time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, Event{Name: name, Time: at, Attrs: attrs})
}

// Absorb appends another tracer's recorded roots and events onto t and
// merges its metrics registry, preserving o's internal order. It is the
// deterministic join point for per-worker tracers: workers record into
// private tracers concurrently, then the scheduler absorbs them in a fixed
// (corpus) order, producing the same trace tree as a sequential run.
// Absorbing an open tracer (non-empty span stack) is a caller bug; the
// spans are taken as-is. Nil-safe on both sides; o must not be used after.
func (t *Tracer) Absorb(o *Tracer) {
	if t == nil || o == nil {
		return
	}
	o.mu.Lock()
	roots, events, reg := o.roots, o.events, o.reg
	o.mu.Unlock()
	t.mu.Lock()
	t.roots = append(t.roots, roots...)
	t.events = append(t.events, events...)
	t.mu.Unlock()
	t.reg.Merge(reg)
}

// Roots returns the recorded root spans (the live slice; callers must not
// mutate while recording continues).
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots
}

// Events returns the recorded event log.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Walk visits every span depth-first in deterministic (creation) order.
func (t *Tracer) Walk(fn func(s *Span, depth int)) {
	if t == nil {
		return
	}
	for _, r := range t.Roots() {
		walkSpan(r, 0, fn)
	}
}

func walkSpan(s *Span, depth int, fn func(*Span, int)) {
	fn(s, depth)
	for _, c := range s.Children {
		walkSpan(c, depth+1, fn)
	}
}

// FindSpan returns the first span (depth-first, creation order) whose ID
// matches, or nil. This is the exemplar join: an exemplar annotation in the
// exposition carries a span ID, and FindSpan resolves it back to the trace
// subtree that explains the outlier. Linear in the trace size — exemplar
// lookups are interactive-path only.
func (t *Tracer) FindSpan(id string) *Span {
	if t == nil || id == "" {
		return nil
	}
	var found *Span
	t.Walk(func(s *Span, _ int) {
		if found == nil && s.ID == id {
			found = s
		}
	})
	return found
}

// Subtree renders the span and its descendants as indented text, one span
// per line with timing and attributes — the human-readable answer to "what
// was this exemplar doing". Deterministic for a deterministic trace.
func (s *Span) Subtree() string {
	var b []byte
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, "  "...)
		}
		b = append(b, sp.Name...)
		if sp.Cat != "" {
			b = append(b, " ["...)
			b = append(b, sp.Cat...)
			b = append(b, ']')
		}
		b = append(b, fmt.Sprintf(" %s +%s", sp.Start, sp.Dur())...)
		if sp.ID != "" {
			b = append(b, " id="...)
			b = append(b, sp.ID...)
		}
		for _, a := range sp.Attrs {
			b = append(b, ' ')
			b = append(b, a.Key...)
			b = append(b, '=')
			b = append(b, a.Val...)
		}
		b = append(b, '\n')
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	if s == nil {
		return ""
	}
	walk(s, 0)
	return string(b)
}
