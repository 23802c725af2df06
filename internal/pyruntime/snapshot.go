package pyruntime

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pylang"
)

// This file implements content-addressed import memoization: the import of a
// module (its "window": the importOne call, inclusive of every nested import)
// is recorded once and replayed on later runs whose relevant state matches.
// Replay advances the virtual clock, allocator, fuel and id() counter by the
// recorded deltas, re-emits the recorded stdout and remote-call journal, and
// installs a shell for each created module whose namespace lists every
// recorded name but builds a slot's value only when it is first read (a
// function reads few of the library attributes it imports) — so every
// simulated observable is byte-identical to live execution, and only real
// wall-clock time changes.
//
// Soundness rests on content addressing. An entry is keyed by the importing
// module's name plus a fingerprint of its source (override AST or file
// bytes), and validated against the current interpreter state: every module
// created inside the window must resolve to identically-fingerprinted source,
// and every already-loaded module read by the window must carry the same
// state fingerprint (sfp) it had at record time. A module's sfp is derived
// from its own source fingerprint plus the ordered dependency events of its
// window, so matching sfps pin the namespaces the window saw.
//
// A module namespace changes after its own window closed in one of two
// ways, and each has one rule. A submodule binding by the Import loop is
// recorded in every open window and re-applied on replay. Any other write
// (module setattr or delattr, a cross-module `global` bind or del, a binding
// that replaces another value) marks every open window unreplayable except
// those that created the module while its own import still runs, and bumps
// the module's sfp to a unique "poison" value, invalidating any entry that
// depended on the old state. No other interpreter can match a poison, so a
// window that reads one captures nothing and publishes a poison as its own
// module's sfp: the windows that read that module are refused in turn.
//
// Residual contract (documented in DESIGN.md): module bodies must not mutate
// container/instance/class state owned by previously-imported modules at
// import time, values shared across modules must be reachable as top-level
// attributes of a module the window reads, and a module body must not call
// into a module whose imports were written or bound after its window closed
// (its sfp does not follow them). The corpus satisfies all three; the golden
// determinism test enforces byte-identity end to end.

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

// snapEntriesPerKey bounds the entries kept per (name, body fingerprint) key.
// Delta Debugging churns the candidate module's override, so the entry
// module's key accumulates one entry per candidate; FIFO eviction only costs
// a re-execution, never correctness.
const snapEntriesPerKey = 8

// SnapshotStats reports cache effectiveness and occupancy.
type SnapshotStats struct {
	Hits      int64
	Misses    int64
	Entries   int64 // live entries across all keys
	Evictions int64 // cumulative FIFO evictions

	// Namespace slots replays installed: Materialized were read (their value
	// was built), Deferred were never read so far.
	Deferred     int64
	Materialized int64
}

// SnapshotCache memoizes module import windows across interpreter instances.
// It is safe for concurrent use: entries are immutable after insertion and
// replay builds fresh runtime objects per interpreter, so a cache may be
// shared across the apps of a corpus-parallel debloat.
type SnapshotCache struct {
	mu           sync.RWMutex
	m            map[string][]*snapEntry
	hits         atomic.Int64
	misses       atomic.Int64
	entries      atomic.Int64
	evictions    atomic.Int64
	installed    atomic.Int64 // namespace slots installed by replays
	materialized atomic.Int64 // of those, slots read

	// astFP memoizes override fingerprints per AST pointer (trees are
	// immutable once built). It lives and dies with the cache: Delta
	// Debugging candidates are marked volatile and never reach the
	// fingerprint path, so the only ASTs hashed here are accepted
	// reductions, one per debloated module, whose pointers repeat across
	// the remaining oracle runs.
	astFP sync.Map // *pylang.Module -> string
}

// NewSnapshotCache returns an empty snapshot cache.
func NewSnapshotCache() *SnapshotCache {
	return &SnapshotCache{m: make(map[string][]*snapEntry)}
}

// Stats returns cumulative hit/miss counts.
func (sc *SnapshotCache) Stats() SnapshotStats {
	if sc == nil {
		return SnapshotStats{}
	}
	materialized := sc.materialized.Load()
	return SnapshotStats{
		Hits:         sc.hits.Load(),
		Misses:       sc.misses.Load(),
		Entries:      sc.entries.Load(),
		Evictions:    sc.evictions.Load(),
		Deferred:     sc.installed.Load() - materialized,
		Materialized: materialized,
	}
}

func (sc *SnapshotCache) lookup(in *Interp, name, bodyFP string) *snapEntry {
	key := name + "\x00" + bodyFP
	sc.mu.RLock()
	entries := sc.m[key]
	// Newest first: later entries were recorded against more recent module
	// states (e.g. the current override stack) and validate far more often.
	// Validation only reads interpreter and entry state, so it can run under
	// the read lock, which also makes the slice safe to iterate in place.
	for i := len(entries) - 1; i >= 0; i-- {
		if e := entries[i]; in.validateEntry(e) {
			sc.mu.RUnlock()
			sc.hits.Add(1)
			return e
		}
	}
	sc.mu.RUnlock()
	sc.misses.Add(1)
	return nil
}

func (sc *SnapshotCache) insert(e *snapEntry) {
	key := e.name + "\x00" + e.bodyFP
	sc.mu.Lock()
	defer sc.mu.Unlock()
	list := sc.m[key]
	for _, old := range list {
		if old.sfp == e.sfp {
			return // same state: concurrent or repeated record, keep first
		}
	}
	// Evict oldest-first until the new entry fits. Dropping a single entry
	// unconditionally only keeps the invariant when lists never exceed the
	// cap by more than one; a loop holds len <= snapEntriesPerKey for every
	// interleaving of inserts (and across cap changes).
	if over := len(list) - (snapEntriesPerKey - 1); over > 0 {
		list = append(list[:0:0], list[over:]...)
		sc.entries.Add(int64(-over))
		sc.evictions.Add(int64(over))
	}
	sc.m[key] = append(list, e)
	sc.entries.Add(1)
}

// ---------------------------------------------------------------------------
// Entry model
// ---------------------------------------------------------------------------

// depEvent is one dependency observation inside a window, in program order:
// 'c' — a module was created (fp = its body fingerprint),
// 'l' — an already-loaded module was returned (fp = its sfp at that moment),
// 'p' — a partially-initialized module on the import stack was returned
// (cyclic import; recorded only when the module belongs to the window).
type depEvent struct {
	kind byte
	name string
	fp   string
}

// snapBinding records the Import loop binding a submodule as an attribute of
// its parent package after the parent's own import finished. childSfp is the
// child's sfp at bind time, so the parent's sfp chain update replays
// identically. local marks a parent the entry itself creates: replay sets
// the attribute but skips the chain update, which the parent's recorded sfp
// already includes.
type snapBinding struct {
	parent, attr, child string
	childSfp            string
	local               bool
}

// snapWant is a pre-replay existence check: a pre-existing module (and
// optionally one of its top-level attributes) the captured graph references.
type snapWant struct {
	mod, attr string
}

// snapModule is one module created inside the window, in creation order.
type snapModule struct {
	name string
	file string
	sfp  string
	dict *snapNS
}

// snapEntry is one recorded import window.
type snapEntry struct {
	name   string
	bodyFP string
	sfp    string // window module's state fingerprint

	events []depEvent
	// checks are the events validation checks, in window order: every
	// creation, and every load of a module the window had not created
	// before it.
	checks   []depEvent
	bindings []snapBinding
	wants    []snapWant
	mods     []snapModule
	// origins lists every snapOriginRef the node graph reaches, so replay
	// can resolve them all before any slot is read.
	origins []*snapOriginRef

	clockDelta   time.Duration
	allocNet     int64
	allocPeakOff int64
	stmts        int64 // fuel consumed
	idDelta      int64
	idStart      int64
	stdout       string
	remote       []RemoteCall
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

func hashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// astFingerprint is an override's body fingerprint. A file's is computed
// once per image, on its srcRecord (fileRecord), from the file's path and
// content digest.
func (sc *SnapshotCache) astFingerprint(m *pylang.Module) string {
	if s, ok := sc.astFP.Load(m); ok {
		return s.(string)
	}
	s := hashStrings("ast", pylang.Print(m))
	sc.astFP.Store(m, s)
	return s
}

// poisonSeq makes every poison value process-unique, so a stale sfp can only
// ever match the exact captured state that recorded it.
var poisonSeq atomic.Int64

const poisonPrefix = "!poison:"

func newPoison() string {
	return fmt.Sprintf("%s%d", poisonPrefix, poisonSeq.Add(1))
}

func isPoison(fp string) bool { return strings.HasPrefix(fp, poisonPrefix) }

// sfpHash derives a module's state fingerprint from its identity, source and
// ordered window events. Windows that consumed id() tokens fold the counter
// start in, because the absolute tokens are embedded in the resulting state.
func sfpHash(name, bodyFP string, events []depEvent, idStart, idDelta int64) string {
	h := sha256.New()
	h.Write([]byte("sfp\x00" + name + "\x00" + bodyFP + "\x00"))
	for _, ev := range events {
		h.Write([]byte{ev.kind})
		h.Write([]byte(ev.name))
		h.Write([]byte{0})
		h.Write([]byte(ev.fp))
		h.Write([]byte{0})
	}
	if idDelta != 0 {
		fmt.Fprintf(h, "id%d", idStart)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func bindHash(parentSfp, attr, childSfp string) string {
	return hashStrings("bind", parentSfp, attr, childSfp)
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

// snapRecorder tracks one open import window.
type snapRecorder struct {
	name   string
	bodyFP string
	bad    bool // window observed something it cannot replay

	// noInsert marks a window that imported a volatile module (a Delta
	// Debugging candidate, see SetVolatile) or read a poisoned sfp: it
	// records no events and will not be captured, since a cached entry
	// could never validate again. Nested windows opened after that still
	// record and insert normally.
	noInsert bool

	created    []string // modules created in-window, creation order
	createdSet map[string]bool
	events     []depEvent
	bindings   []snapBinding

	// Adoption: the node graphs nested entries (captured or replayed)
	// already built. Capture maps each runtime object of theirs back to its
	// immutable node instead of re-cloning it, so each module's namespace
	// is cloned at most once per process-wide record, not once per
	// enclosing window. The adopted nodes stay exact: a module's namespace
	// changes after its window closed only by a recorded binding or by a
	// write that keeps this window from capturing.
	//
	// The node mappings are kept as references to the nested installs'
	// and captures' own maps (adoptedMaps) and merged only if this window
	// actually captures: replays are ~100x more frequent than captures, so
	// copying (and for replays, inverting) the maps eagerly on every adopt
	// would dominate the replay fast path.
	adoptedMaps    []adoptedNodeMap
	adoptedWants   []snapWant
	adoptedOrigins []*snapOriginRef

	clockStart  time.Duration
	usedStart   int64
	peakStart   int64
	fuelStart   int64
	idStart     int64
	stdoutStart int
	remoteStart int
}

// adoptedNodeMap is a borrowed node mapping from a nested capture or
// replay. A capture's memo maps runtime object -> node and is final. A
// replay's installer maps node -> runtime object and keeps growing as its
// lazy slots are read, so it is borrowed live: a capture then maps every
// object materialized so far back to its node, and references the nodes of
// slots still unread directly.
type adoptedNodeMap struct {
	capture map[any]any
	inst    *snapInstaller
}

// adopt records a nested entry's wants and origins. Its node mappings are
// added separately (see adoptedMaps), borrowed, not copied.
func (r *snapRecorder) adopt(e *snapEntry) {
	r.adoptedWants = append(r.adoptedWants, e.wants...)
	r.adoptedOrigins = append(r.adoptedOrigins, e.origins...)
}

// seedCloner merges the borrowed node mappings into a capture's memo so
// already-snapshotted objects are referenced instead of re-cloned. Resolved
// origins are skipped: an installer memoizes them only to resolve each once
// per replay, and the capture keeps finding pre-existing values by their
// owner (snapCloner.origin). So are nested wants on modules this window
// creates: the entry installs those itself, and they do not exist yet when
// it validates; origins into them stay exact (see newSnapCloner).
func (r *snapRecorder) seedCloner(cl *snapCloner) {
	for _, am := range r.adoptedMaps {
		if am.inst == nil {
			for rt, node := range am.capture {
				cl.memo[rt] = node
			}
			continue
		}
		cl.adoptedSI[am.inst] = true
		for node, rt := range am.inst.memo {
			if _, isOrigin := node.(*snapOriginRef); !isOrigin {
				cl.memo[rt] = node
			}
		}
	}
	for _, w := range r.adoptedWants {
		if !r.createdSet[w.mod] {
			cl.wants[w] = true
		}
	}
	for _, o := range r.adoptedOrigins {
		cl.addOrigin(o)
	}
}

// snapActive reports whether import windows are being recorded/replayed.
// Hooks disable the machinery (the profiler must observe live execution);
// stdout must be the default builder so output deltas can be captured.
func (in *Interp) snapActive() bool {
	if in.snap == nil || len(in.hooks) != 0 {
		return false
	}
	_, ok := in.Stdout.(*strings.Builder)
	return ok
}

func (in *Interp) beginWindow(name, bodyFP string) *snapRecorder {
	sb := in.Stdout.(*strings.Builder)
	rec := &snapRecorder{
		name:        name,
		bodyFP:      bodyFP,
		createdSet:  make(map[string]bool, 4),
		clockStart:  in.Clock.Now(),
		usedStart:   in.Alloc.Used(),
		peakStart:   in.Alloc.Peak(),
		fuelStart:   in.fuel,
		idStart:     in.idCounter,
		stdoutStart: sb.Len(),
		remoteStart: len(in.RemoteLog),
	}
	in.recStack = append(in.recStack, rec)
	return rec
}

// noteCreated records a module creation on every active window.
func (in *Interp) noteCreated(name, bodyFP string) {
	for _, r := range in.recStack {
		if r.noInsert {
			continue
		}
		r.events = append(r.events, depEvent{kind: 'c', name: name, fp: bodyFP})
		r.created = append(r.created, name)
		r.createdSet[name] = true
	}
}

// poisonOpenWindows marks every open window noInsert; called when a
// volatile module is about to execute inside them, or when they read a
// poisoned state, which no other interpreter can ever match.
func (in *Interp) poisonOpenWindows() {
	for _, r := range in.recStack {
		r.noInsert = true
	}
}

// importing reports whether name's own import is still executing.
func (in *Interp) importing(name string) bool {
	for _, active := range in.importStack {
		if active == name {
			return true
		}
	}
	return false
}

// noteLoadedDep records an importOne early return on every active window.
func (in *Interp) noteLoadedDep(name string) {
	if !in.snapActive() || len(in.recStack) == 0 {
		return
	}
	if in.importing(name) {
		// A partially-initialized module is only replayable when it belongs
		// to the window (the cycle then resolves inside the recorded state).
		for _, r := range in.recStack {
			if r.noInsert {
				continue
			}
			if r.createdSet[name] {
				r.events = append(r.events, depEvent{kind: 'p', name: name})
			} else {
				r.bad = true
			}
		}
		return
	}
	fp, ok := in.sfp[name]
	if !ok {
		// Loaded before snapshots were enabled: state unknown, never match.
		fp = newPoison()
		in.sfp[name] = fp
	}
	if isPoison(fp) {
		in.poisonOpenWindows()
		return
	}
	for _, r := range in.recStack {
		if r.noInsert {
			continue
		}
		r.events = append(r.events, depEvent{kind: 'l', name: name, fp: fp})
	}
}

// noteBinding records the Import loop binding child into parent on every
// open window, and applies the deterministic sfp chain update (identically
// applied on replay). The Import loop calls it just before the binding. A
// binding made while the parent's own import still runs is part of the
// parent's state like any name its body binds: the windows that created
// the parent capture it, and every other open window read the partial
// parent and is already bad. A binding that replaces another value already
// built in the parent is a write like any other (notePoisonModule): a
// window may hold an alias of the old value, which a replay resolves from
// the parent it installs, and a parent cloned at capture holds the new one.
func (in *Interp) noteBinding(parent, attr, child string) {
	if in.snap == nil || in.sfp == nil || in.importing(parent) {
		return
	}
	if old, ok := in.modules[parent].Dict.peek(attr); ok && old != in.modules[child] {
		in.notePoisonModule(parent)
		return
	}
	childSfp, ok := in.sfp[child]
	if !ok {
		// A child still importing has no sfp yet. A fresh stamp stands in
		// for it, and replay re-applies the recorded stamp, so the parent's
		// chain stays reproducible: unlike a poisoned read, such a binding
		// leaves the window replayable.
		childSfp = newPoison()
		in.sfp[child] = childSfp
	}
	if _, ok := in.sfp[parent]; ok {
		in.sfp[parent] = bindHash(in.sfp[parent], attr, childSfp)
	}
	b := snapBinding{parent: parent, attr: attr, child: child, childSfp: childSfp}
	for _, r := range in.recStack {
		if r.noInsert {
			continue
		}
		b.local = r.createdSet[parent]
		r.bindings = append(r.bindings, b)
	}
}

// notePoisonModule marks a write to a module namespace other than a recorded
// submodule binding. While the module's own import runs, the write is part
// of its recorded state for the windows that created it; every other open
// window cannot replay it and is marked bad. The module's sfp is bumped so
// dependent entries stop validating.
func (in *Interp) notePoisonModule(name string) {
	if in.snap == nil {
		return
	}
	importing := in.importing(name)
	for _, r := range in.recStack {
		if !importing || !r.createdSet[name] {
			r.bad = true
		}
	}
	if _, ok := in.sfp[name]; ok {
		in.sfp[name] = newPoison()
	}
}

// endWindow closes the innermost window: it publishes the module's sfp and,
// when the window is cleanly replayable, captures and inserts a cache entry.
func (in *Interp) endWindow(rec *snapRecorder, err *PyErr) {
	in.recStack = in.recStack[:len(in.recStack)-1]
	if err != nil {
		// The window's events already leaked into enclosing recorders and
		// the created module is about to be deleted; no enclosing window can
		// be replayed faithfully.
		for _, r := range in.recStack {
			r.bad = true
		}
		return
	}
	if rec.noInsert {
		// The window enclosed a volatile module or read a poisoned state:
		// its event log is deliberately incomplete, so publish a poison
		// (the windows that read this module are refused in turn) and
		// capture nothing.
		in.sfp[rec.name] = newPoison()
		return
	}
	idDelta := in.idCounter - rec.idStart
	sfp := sfpHash(rec.name, rec.bodyFP, rec.events, rec.idStart, idDelta)
	in.sfp[rec.name] = sfp
	if rec.bad {
		return
	}
	entry, nodes := in.captureEntry(rec, sfp, idDelta)
	if entry != nil {
		in.snap.insert(entry)
		// Let the enclosing window reuse this entry's node graph instead of
		// re-cloning the same modules at its own capture. The replays this
		// window adopted pass on too, because their lazy slots may still be
		// read before the enclosing capture.
		if n := len(in.recStack); n > 0 && !in.recStack[n-1].noInsert {
			parent := in.recStack[n-1]
			parent.adopt(entry)
			for _, am := range rec.adoptedMaps {
				if am.inst != nil {
					parent.adoptedMaps = append(parent.adoptedMaps, am)
				}
			}
			parent.adoptedMaps = append(parent.adoptedMaps, adoptedNodeMap{capture: nodes})
		}
	}
}

func (in *Interp) captureEntry(rec *snapRecorder, sfp string, idDelta int64) (*snapEntry, map[any]any) {
	cl := newSnapCloner(in, rec)
	rec.seedCloner(cl)
	mods := make([]snapModule, 0, len(rec.created))
	for _, name := range rec.created {
		mod, ok := in.modules[name]
		if !ok {
			return nil, nil
		}
		dictNode, ok := cl.cloneNS(mod.Dict).(*snapNS)
		if !ok {
			return nil, nil
		}
		mods = append(mods, snapModule{name: name, file: mod.File, sfp: in.sfp[name], dict: dictNode})
	}
	if cl.bad {
		return nil, nil
	}
	checks, ok := validationChecks(rec.events)
	if !ok {
		return nil, nil
	}
	for _, b := range rec.bindings {
		if !b.local {
			cl.want(b.parent, "")
		}
		if !rec.createdSet[b.child] {
			cl.want(b.child, "")
		}
	}
	sb := in.Stdout.(*strings.Builder)
	allocNet := in.Alloc.Used() - rec.usedStart
	peakOff := int64(0)
	if peakEnd := in.Alloc.Peak(); peakEnd > rec.peakStart {
		peakOff = peakEnd - rec.usedStart
	}
	if peakOff < allocNet {
		peakOff = allocNet
	}
	if peakOff < 0 {
		peakOff = 0
	}
	e := &snapEntry{
		name:         rec.name,
		bodyFP:       rec.bodyFP,
		sfp:          sfp,
		events:       append([]depEvent(nil), rec.events...),
		checks:       checks,
		bindings:     append([]snapBinding(nil), rec.bindings...),
		wants:        cl.sortedWants(),
		mods:         mods,
		clockDelta:   in.Clock.Now() - rec.clockStart,
		allocNet:     allocNet,
		allocPeakOff: peakOff,
		stmts:        rec.fuelStart - in.fuel,
		idDelta:      idDelta,
		idStart:      rec.idStart,
		stdout:       sb.String()[rec.stdoutStart:],
		remote:       append([]RemoteCall(nil), in.RemoteLog[rec.remoteStart:]...),
		origins:      cl.origins,
	}
	return e, cl.memo
}

// validationChecks selects the events an entry's validation checks (see
// snapEntry.checks). A window that created a module twice can never
// validate, and ok is false.
func validationChecks(events []depEvent) (checks []depEvent, ok bool) {
	created := make(map[string]bool)
	for _, ev := range events {
		switch ev.kind {
		case 'c':
			if created[ev.name] {
				return nil, false
			}
			created[ev.name] = true
			checks = append(checks, ev)
		case 'l':
			if !created[ev.name] {
				checks = append(checks, ev)
			}
		}
	}
	return checks, true
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

// validateEntry checks that replaying e into the current interpreter state
// reproduces exactly what live execution would do.
func (in *Interp) validateEntry(e *snapEntry) bool {
	// Strict inequality: live execution panics when fuel reaches zero, so a
	// window consuming the entire remaining budget is not equivalent.
	if in.fuel <= e.stmts {
		return false
	}
	if e.idDelta != 0 && in.idCounter != e.idStart {
		return false
	}
	for i := range e.checks {
		ev := &e.checks[i]
		switch ev.kind {
		case 'c':
			// A volatile module's content is probe-specific: no recorded
			// fingerprint can ever match it, and fingerprinting it here
			// would print the fresh candidate AST on every probe.
			if ev.name == in.volatile {
				return false
			}
			if _, loaded := in.modules[ev.name]; loaded {
				return false
			}
			src, ok := in.resolveSource(ev.name)
			if !ok || in.moduleFP(src) != ev.fp {
				return false
			}
		case 'l':
			if _, loaded := in.modules[ev.name]; !loaded {
				return false
			}
			if in.sfp[ev.name] != ev.fp {
				return false
			}
		}
	}
	for _, w := range e.wants {
		m, ok := in.modules[w.mod]
		if !ok {
			return false
		}
		if w.attr != "" && !m.Dict.Has(w.attr) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

// replayEntry applies a validated entry: virtual deltas, recorded output and
// side effects, and a shell per created module whose slots are built on
// first read (see snapInstaller).
func (in *Interp) replayEntry(e *snapEntry) *ModuleV {
	in.Clock.Advance(e.clockDelta)
	in.Alloc.Alloc(e.allocPeakOff)
	in.Alloc.Free(e.allocPeakOff - e.allocNet)
	in.fuel -= e.stmts
	in.idCounter += e.idDelta
	if e.stdout != "" {
		io.WriteString(in.Stdout, e.stdout)
	}
	if len(e.remote) > 0 {
		in.RemoteLog = append(in.RemoteLog, e.remote...)
	}

	inst := &snapInstaller{in: in, memo: make(map[any]any, len(e.mods)+len(e.origins))}
	for i := range e.mods {
		sm := &e.mods[i]
		in.modules[sm.name] = &ModuleV{Name: sm.name, Dict: inst.ns(sm.dict), File: sm.file}
	}
	// Origins resolve now, before the bindings below and before any slot is
	// read: the owning module may rebind the attribute later, and the
	// recorded window saw the value it had at this point.
	for _, o := range e.origins {
		inst.memo[o] = inst.origin(o)
	}
	for i := range e.mods {
		in.sfp[e.mods[i].name] = e.mods[i].sfp
	}
	// Submodule bindings, with the sfp chain updates the live path applied
	// to pre-existing parents (allocation is covered by the deltas).
	for _, b := range e.bindings {
		in.modules[b.parent].Dict.Set(b.attr, in.modules[b.child])
		if _, ok := in.sfp[b.parent]; ok && !b.local {
			in.sfp[b.parent] = bindHash(in.sfp[b.parent], b.attr, b.childSfp)
		}
	}
	// Propagate the window's observable events into enclosing windows,
	// exactly as live execution would have.
	for _, r := range in.recStack {
		if r.noInsert {
			continue
		}
		r.events = append(r.events, e.events...)
		for i := range e.mods {
			r.created = append(r.created, e.mods[i].name)
			r.createdSet[e.mods[i].name] = true
		}
		for _, b := range e.bindings {
			b.local = r.createdSet[b.parent]
			r.bindings = append(r.bindings, b)
		}
	}
	// The innermost recorder adopts the entry's node graph: the runtime
	// objects this replay materializes map back to the entry's immutable
	// nodes, so the enclosing capture can reference instead of re-clone.
	// The installer is borrowed live; the capture inverts its memo only if
	// it actually happens.
	if n := len(in.recStack); n > 0 && !in.recStack[n-1].noInsert {
		top := in.recStack[n-1]
		top.adopt(e)
		top.adoptedMaps = append(top.adoptedMaps, adoptedNodeMap{inst: inst})
	}
	return in.modules[e.name]
}

// ---------------------------------------------------------------------------
// Capture: runtime graph -> neutral snapshot graph
// ---------------------------------------------------------------------------

// Snapshot node types. Nodes are immutable after capture and shared across
// replays; each replay materializes fresh runtime objects from them.
type (
	snapLit        struct{ v Value }          // scalars and immutable leaves, shared directly
	snapBuiltinRef struct{ name string }      // builtins-registry object, resolved per interp
	snapExcRef     struct{ name string }      // builtin exception class, resolved per interp
	snapModRef     struct{ name string }      // module object, resolved by name
	snapModDictRef struct{ name string }      // pre-existing module's namespace
	snapOriginRef  struct{ mod, attr string } // top-level attr of a pre-existing module
	snapDictPair   struct{ key, val any }
	snapList       struct{ elems []any }
	snapTuple      struct{ elems []any }
	snapDict       struct{ pairs []snapDictPair }
	// snapNS is a namespace's recorded slots: the same slot table a live
	// namespace keeps, holding nodes. Capture copies its names and index
	// from the captured table before the entry is published, so the lazy
	// namespaces of concurrent replays only ever read it.
	snapNS   = slotTable[any]
	snapFunc struct {
		def      *pylang.DefStmt
		lambda   *pylang.LambdaExpr
		module   string
		globals  any
		env      any
		defaults []any
	}
	snapClass struct {
		name      string
		base      any
		dict      any
		module    string
		exception bool
	}
	snapInstance struct {
		class any
		dict  any
	}
	snapBound struct {
		recv any
		fn   any
	}
	snapEnv struct {
		names       []string
		vals        []any
		parent      any
		globalNames []string
	}
)

type snapCloner struct {
	in      *Interp
	created map[string]bool
	origin  map[any]any // runtime pointer -> ref node or snapUnread, for pre-existing aliasing
	memo    map[any]any // runtime pointer -> cloned node, preserves aliasing/cycles
	wants   map[snapWant]bool
	bad     bool

	// origins lists the origin refs the graph reaches, first-seen order.
	origins    []*snapOriginRef
	originSeen map[*snapOriginRef]bool
	// adoptedSI holds the replays whose node graphs this capture adopted:
	// an unread slot of a namespace they installed is referenced as its
	// node. Other replays' lazy namespaces are read in full, because only
	// adopted installers map their objects back to nodes.
	adoptedSI map[*snapInstaller]bool
}

// snapUnread marks a top-level value of a pre-existing module the window
// never read (see newSnapCloner).
type snapUnread struct{}

// newSnapCloner indexes pre-existing modules so aliases into them are
// captured symbolically, preserving identity with the live originals. A
// top-level value becomes (module, attribute), resolved when a replay
// begins, so it names only a module the window read ('l' events pin its
// state, and only finished imports are read; a later write to the attribute
// marks the window bad). A value held only by unread modules came along a
// path no event pins, such as a call's result, and keeps the window from
// capturing. Read modules come first, each group sorted, so ties are
// deterministic.
func newSnapCloner(in *Interp, rec *snapRecorder) *snapCloner {
	c := &snapCloner{
		in:         in,
		created:    rec.createdSet,
		origin:     make(map[any]any),
		memo:       make(map[any]any),
		wants:      make(map[snapWant]bool),
		originSeen: make(map[*snapOriginRef]bool),
		adoptedSI:  make(map[*snapInstaller]bool),
	}
	read := make(map[string]bool)
	for _, ev := range rec.events {
		if ev.kind == 'l' {
			read[ev.name] = true
		}
	}
	names := make([]string, 0, len(in.modules))
	for n := range in.modules {
		if !c.created[n] {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if read[names[i]] != read[names[j]] {
			return read[names[i]]
		}
		return names[i] < names[j]
	})
	var attrs []string
	for _, mn := range names {
		m := in.modules[mn]
		if _, ok := c.origin[m.Dict]; !ok {
			c.origin[m.Dict] = &snapModDictRef{name: mn}
		}
		attrs = m.Dict.appendNames(attrs[:0])
		for _, attr := range attrs {
			v, ok := m.Dict.peek(attr)
			if !ok {
				continue
			}
			switch v.(type) {
			case NoneV, BoolV, IntV, FloatV, StrV, *RangeV, *NativeBuf, *ModuleV:
				continue
			}
			if _, ok := c.origin[v]; ok {
				continue
			}
			if read[mn] {
				c.origin[v] = &snapOriginRef{mod: mn, attr: attr}
			} else {
				c.origin[v] = snapUnread{}
			}
		}
	}
	return c
}

func (c *snapCloner) want(mod, attr string) {
	c.wants[snapWant{mod: mod, attr: attr}] = true
}

func (c *snapCloner) addOrigin(o *snapOriginRef) {
	if !c.originSeen[o] {
		c.originSeen[o] = true
		c.origins = append(c.origins, o)
	}
}

func (c *snapCloner) sortedWants() []snapWant {
	out := make([]snapWant, 0, len(c.wants))
	for w := range c.wants {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].mod != out[j].mod {
			return out[i].mod < out[j].mod
		}
		return out[i].attr < out[j].attr
	})
	return out
}

func (c *snapCloner) clone(v Value) any {
	switch v.(type) {
	case nil:
		return nil
	case NoneV, BoolV, IntV, FloatV, StrV:
		return &snapLit{v: v}
	case *RangeV, *NativeBuf:
		// Immutable leaf objects: sharing the pointer across interpreters is
		// unobservable (identity relations within one interp are preserved).
		return &snapLit{v: v}
	}
	if n, ok := c.memo[v]; ok {
		return n
	}
	if name, ok := c.in.builtinPtrName(v); ok {
		return &snapBuiltinRef{name: name}
	}
	switch t := v.(type) {
	case *BuiltinV:
		// A builtin outside the registry is a method closure capturing its
		// receiver; it cannot be re-bound in another interpreter.
		c.bad = true
		return &snapLit{v: None}
	case *ClassV:
		if name, ok := c.in.excPtrName(t); ok {
			return &snapExcRef{name: name}
		}
	case *ModuleV:
		if !c.created[t.Name] {
			c.want(t.Name, "")
		}
		return &snapModRef{name: t.Name}
	}
	if ref, ok := c.origin[v]; ok {
		switch o := ref.(type) {
		case *snapOriginRef:
			c.want(o.mod, o.attr)
			c.addOrigin(o)
		case snapUnread:
			c.bad = true
			return &snapLit{v: None}
		}
		return ref
	}
	switch t := v.(type) {
	case *ListV:
		node := &snapList{elems: make([]any, len(t.Elems))}
		c.memo[v] = node
		for i, e := range t.Elems {
			node.elems[i] = c.clone(e)
		}
		return node
	case *TupleV:
		node := &snapTuple{elems: make([]any, len(t.Elems))}
		c.memo[v] = node
		for i, e := range t.Elems {
			node.elems[i] = c.clone(e)
		}
		return node
	case *DictV:
		node := &snapDict{}
		c.memo[v] = node
		for _, kv := range t.Items() {
			node.pairs = append(node.pairs, snapDictPair{key: c.clone(kv[0]), val: c.clone(kv[1])})
		}
		return node
	case *FuncV:
		node := &snapFunc{def: t.Def, lambda: t.Lambda, module: t.Module}
		c.memo[v] = node
		node.globals = c.cloneNS(t.Globals)
		node.env = c.cloneEnv(t.Env)
		if t.Defaults != nil {
			node.defaults = make([]any, len(t.Defaults))
			for i, d := range t.Defaults {
				if d != nil {
					node.defaults[i] = c.clone(d)
				}
			}
		}
		return node
	case *ClassV:
		node := &snapClass{name: t.Name, module: t.Module, exception: t.Exception}
		c.memo[v] = node
		if t.Base != nil {
			node.base = c.clone(t.Base)
		}
		node.dict = c.cloneNS(t.Dict)
		return node
	case *InstanceV:
		node := &snapInstance{}
		c.memo[v] = node
		node.class = c.clone(t.Class)
		node.dict = c.cloneNS(t.Dict)
		return node
	case *BoundMethodV:
		node := &snapBound{}
		c.memo[v] = node
		node.recv = c.clone(t.Recv)
		node.fn = c.clone(t.Fn)
		return node
	}
	c.bad = true
	return &snapLit{v: None}
}

func (c *snapCloner) cloneNS(ns *Namespace) any {
	if ns == nil {
		return nil
	}
	if n, ok := c.memo[ns]; ok {
		return n
	}
	if ref, ok := c.origin[ns]; ok {
		if d, isDict := ref.(*snapModDictRef); isDict {
			c.want(d.name, "")
		}
		return ref
	}
	node := &snapNS{slots: make([]slot[any], 0, ns.Len())}
	c.memo[ns] = node
	if ns.snap == nil {
		for _, s := range ns.t.slots {
			node.slots = append(node.slots, slot[any]{s.name, c.clone(s.val)})
		}
		node.copyIndex(ns.t.index, len(node.slots))
		return node
	}
	direct := c.adoptedSI[ns.si]
	for _, rec := range ns.snap.slots {
		var val any
		if i, ok := ns.t.find(rec.name); ok {
			val = c.clone(ns.t.slots[i].val)
		} else if direct {
			// Unread slot of an adopted replay: its node is exactly what the
			// slot holds, and reading it later maps back to the same node.
			val = rec.val
		} else {
			v, _ := ns.materialize(rec.name)
			val = c.clone(v)
		}
		node.slots = append(node.slots, slot[any]{rec.name, val})
	}
	for _, s := range ns.t.slots {
		if !ns.snap.has(s.name) {
			node.slots = append(node.slots, slot[any]{s.name, c.clone(s.val)})
		}
	}
	node.copyIndex(ns.snap.index, len(ns.snap.slots))
	return node
}

func (c *snapCloner) cloneEnv(e *Env) any {
	if e == nil {
		return nil
	}
	if n, ok := c.memo[e]; ok {
		return n
	}
	node := &snapEnv{}
	c.memo[e] = node
	names := make([]string, 0, len(e.vars))
	for name := range e.vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		node.names = append(node.names, name)
		node.vals = append(node.vals, c.clone(e.vars[name]))
	}
	node.parent = c.cloneEnv(e.parent)
	if e.globalNames != nil {
		for name := range e.globalNames {
			node.globalNames = append(node.globalNames, name)
		}
		sort.Strings(node.globalNames)
	}
	return node
}

// builtinPtrName resolves a pointer-typed builtins-registry object back to
// its registry name (lazily indexed; builtins are immutable after New).
func (in *Interp) builtinPtrName(v Value) (string, bool) {
	if in.builtinPtrs == nil {
		in.builtinPtrs = make(map[Value]string)
		for _, name := range in.builtins.Names() {
			bv, _ := in.builtins.Get(name)
			switch bv.(type) {
			case *BuiltinV, *ClassV:
				in.builtinPtrs[bv] = name
			}
		}
	}
	name, ok := in.builtinPtrs[v]
	return name, ok
}

func (in *Interp) excPtrName(c *ClassV) (string, bool) {
	if in.excPtrs == nil {
		in.excPtrs = make(map[*ClassV]string, len(in.excClasses))
		for name, cls := range in.excClasses {
			in.excPtrs[cls] = name
		}
	}
	name, ok := in.excPtrs[c]
	return name, ok
}

// ---------------------------------------------------------------------------
// Install: neutral snapshot graph -> fresh runtime graph
// ---------------------------------------------------------------------------

// snapInstaller builds one replay's runtime objects from an entry's nodes.
// Namespaces are installed lazily: each keeps its snapNS node and this
// installer, and Namespace.Get builds a slot's value on its first read. memo
// maps each node built so far to its object, so a node reached twice (an
// alias, a cycle) yields one object, exactly as an eager install would.
type snapInstaller struct {
	in   *Interp
	memo map[any]any
}

// materialize builds an unread slot's value on its first read.
func (ns *Namespace) materialize(name string) (Value, bool) {
	i, ok := ns.snap.find(name)
	if !ok {
		return nil, false
	}
	v := ns.si.value(ns.snap.slots[i].val)
	ns.t.set(name, v)
	ns.si.in.snap.materialized.Add(1)
	return v, true
}

// materializeAll reads every unread slot and drops the namespace's link to
// its snapshot, after which it is an ordinary namespace whose table starts
// from a copy of the node's index.
func (ns *Namespace) materializeAll() {
	t := slotTable[Value]{slots: make([]slot[Value], 0, ns.Len())}
	for _, rec := range ns.snap.slots {
		if i, ok := ns.t.find(rec.name); ok {
			t.slots = append(t.slots, ns.t.slots[i])
		} else {
			val, _ := ns.materialize(rec.name)
			t.slots = append(t.slots, slot[Value]{rec.name, val})
		}
	}
	for _, s := range ns.t.slots {
		if !ns.snap.has(s.name) {
			t.slots = append(t.slots, s)
		}
	}
	t.copyIndex(ns.snap.index, len(ns.snap.slots))
	ns.t, ns.snap, ns.si = t, nil, nil
}

// peek returns a slot's value without materializing it: the value of a slot
// read or set, or, for an unread slot, the object its node was already
// built into through another path of the same replay. An unread slot whose
// node was never built has no runtime object yet, so nothing aliases it.
func (ns *Namespace) peek(name string) (Value, bool) {
	if i, ok := ns.t.find(name); ok {
		return ns.t.slots[i].val, true
	}
	if ns.snap == nil {
		return nil, false
	}
	i, ok := ns.snap.find(name)
	if !ok {
		return nil, false
	}
	v, ok := ns.si.memo[ns.snap.slots[i].val].(Value)
	return v, ok
}

// origin resolves a top-level attribute of a module that existed before the
// recorded window.
func (si *snapInstaller) origin(o *snapOriginRef) Value {
	if m, ok := si.in.modules[o.mod]; ok {
		if v, ok := m.Dict.Get(o.attr); ok {
			return v
		}
	}
	return None // unreachable: wants were validated before replay
}

func (si *snapInstaller) value(n any) Value {
	switch t := n.(type) {
	case nil:
		return nil
	case *snapLit:
		return t.v
	case *snapBuiltinRef:
		v, _ := si.in.builtins.Get(t.name)
		return v
	case *snapExcRef:
		return si.in.excClasses[t.name]
	case *snapModRef:
		return si.in.modules[t.name]
	case *snapOriginRef:
		if v, ok := si.memo[t]; ok {
			return v.(Value) // resolved when the replay began
		}
		return si.origin(t)
	case *snapList:
		if v, ok := si.memo[t]; ok {
			return v.(Value)
		}
		lst := &ListV{Elems: make([]Value, len(t.elems))}
		si.memo[t] = lst
		for i, e := range t.elems {
			lst.Elems[i] = si.value(e)
		}
		return lst
	case *snapTuple:
		if v, ok := si.memo[t]; ok {
			return v.(Value)
		}
		tp := &TupleV{Elems: make([]Value, len(t.elems))}
		si.memo[t] = tp
		for i, e := range t.elems {
			tp.Elems[i] = si.value(e)
		}
		return tp
	case *snapDict:
		if v, ok := si.memo[t]; ok {
			return v.(Value)
		}
		d := NewDict()
		si.memo[t] = d
		for _, kv := range t.pairs {
			d.Set(si.value(kv.key), si.value(kv.val))
		}
		return d
	case *snapFunc:
		if v, ok := si.memo[t]; ok {
			return v.(Value)
		}
		f := &FuncV{Def: t.def, Lambda: t.lambda, Module: t.module}
		si.memo[t] = f
		f.Globals = si.ns(t.globals)
		f.Env = si.env(t.env)
		if t.defaults != nil {
			f.Defaults = make([]Value, len(t.defaults))
			for i, d := range t.defaults {
				if d != nil {
					f.Defaults[i] = si.value(d)
				}
			}
		}
		return f
	case *snapClass:
		if v, ok := si.memo[t]; ok {
			return v.(Value)
		}
		cls := &ClassV{Name: t.name, Module: t.module, Exception: t.exception}
		si.memo[t] = cls
		if t.base != nil {
			cls.Base, _ = si.value(t.base).(*ClassV)
		}
		cls.Dict = si.ns(t.dict)
		return cls
	case *snapInstance:
		if v, ok := si.memo[t]; ok {
			return v.(Value)
		}
		inst := &InstanceV{}
		si.memo[t] = inst
		inst.Class, _ = si.value(t.class).(*ClassV)
		inst.Dict = si.ns(t.dict)
		return inst
	case *snapBound:
		if v, ok := si.memo[t]; ok {
			return v.(Value)
		}
		bm := &BoundMethodV{}
		si.memo[t] = bm
		bm.Recv = si.value(t.recv)
		bm.Fn, _ = si.value(t.fn).(*FuncV)
		return bm
	}
	return None
}

func (si *snapInstaller) ns(n any) *Namespace {
	switch t := n.(type) {
	case nil:
		return nil
	case *snapModDictRef:
		if m, ok := si.in.modules[t.name]; ok {
			return m.Dict
		}
		return NewNamespace()
	case *snapNS:
		if v, ok := si.memo[t]; ok {
			return v.(*Namespace)
		}
		// Every recorded name is visible at once through the shared node;
		// the namespace's own table starts empty.
		ns := &Namespace{}
		if len(t.slots) > 0 {
			ns.snap, ns.si = t, si
			si.in.snap.installed.Add(int64(len(t.slots)))
		}
		si.memo[t] = ns
		return ns
	}
	return NewNamespace()
}

func (si *snapInstaller) env(n any) *Env {
	switch t := n.(type) {
	case nil:
		return nil
	case *snapEnv:
		if v, ok := si.memo[t]; ok {
			return v.(*Env)
		}
		e := &Env{vars: make(map[string]Value, len(t.names))}
		si.memo[t] = e
		for i, name := range t.names {
			e.vars[name] = si.value(t.vals[i])
		}
		e.parent = si.env(t.parent)
		if t.globalNames != nil {
			e.globalNames = make(map[string]bool, len(t.globalNames))
			for _, name := range t.globalNames {
				e.globalNames[name] = true
			}
		}
		return e
	}
	return nil
}
