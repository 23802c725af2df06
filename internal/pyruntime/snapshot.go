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
// installs a deep clone of the created module namespaces — so every simulated
// observable is byte-identical to live execution, and only real wall-clock
// time changes.
//
// Soundness rests on content addressing. An entry is keyed by the importing
// module's name plus a fingerprint of its source (override AST or file
// bytes), and validated against the current interpreter state: every module
// created inside the window must resolve to identically-fingerprinted source,
// and every already-loaded module read by the window must carry the same
// state fingerprint (sfp) it had at record time. A module's sfp is derived
// from its own source fingerprint plus the ordered dependency events of its
// window, so matching sfps pin the whole transitive state the window saw.
// Post-import mutation of a module namespace bumps its sfp to a unique
// "poison" value, invalidating any entry that depended on the old state.
//
// Residual contract (documented in DESIGN.md): module bodies must not mutate
// container/instance/class state owned by previously-imported modules at
// import time, and values shared across modules must be reachable as
// top-level attributes of their owning module (the corpus satisfies both;
// the golden determinism test enforces byte-identity end to end).

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
}

// SnapshotCache memoizes module import windows across interpreter instances.
// It is safe for concurrent use: entries are immutable after insertion and
// replay clones fresh runtime objects per interpreter, so a cache may be
// shared across the goroutines of a parallel DD session and across the apps
// of a corpus-parallel debloat.
type SnapshotCache struct {
	mu        sync.RWMutex
	m         map[string][]*snapEntry
	hits      atomic.Int64
	misses    atomic.Int64
	entries   atomic.Int64
	evictions atomic.Int64
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
	return SnapshotStats{
		Hits:      sc.hits.Load(),
		Misses:    sc.misses.Load(),
		Entries:   sc.entries.Load(),
		Evictions: sc.evictions.Load(),
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
// a parent package that pre-existed the window. childSfp is the child's sfp
// at bind time, so the parent's sfp chain update replays identically.
type snapBinding struct {
	parent, attr, child string
	childSfp            string
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

	events   []depEvent
	bindings []snapBinding
	wants    []snapWant
	mods     []snapModule
	nodes    int // cloned-node count at capture; pre-sizes the replay memo

	clockDelta   time.Duration
	allocNet     int64
	allocPeakOff int64
	stmts        int64 // fuel consumed
	idDelta      int64
	usedID       bool
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

// astFPMemo memoizes override fingerprints per AST pointer (trees are
// immutable once built). It stays bounded because Delta Debugging
// candidates are marked volatile and never reach the fingerprint path: the
// only ASTs hashed here are stable accepted reductions, one per debloated
// module, whose pointers repeat across the remaining oracle runs.
var astFPMemo sync.Map // *pylang.Module -> string

func astFingerprint(m *pylang.Module) string {
	if s, ok := astFPMemo.Load(m); ok {
		return s.(string)
	}
	s := hashStrings("ast", pylang.Print(m))
	astFPMemo.Store(m, s)
	return s
}

// bodyFingerprint content-addresses a module source resolved by
// resolveSource, without parsing it. File content digests are memoized on
// the image itself (vfs.FS.ContentHash), so repeated oracle runs against
// the same image hash each file once, not once per run.
func (in *Interp) bodyFingerprint(src moduleSource) string {
	if src.override != nil {
		return astFingerprint(src.override)
	}
	if h, ok := in.FS.ContentHash(src.path); ok {
		return hashStrings("file", src.path, h)
	}
	// File vanished between resolution and fingerprinting: hash the
	// resolved source directly (distinct inputs can only produce distinct
	// fingerprints, so a missed cache hit is the worst case).
	return hashStrings("file", src.path, src.src)
}

// poisonSeq makes every poison value process-unique, so a stale sfp can only
// ever match the exact captured state that recorded it.
var poisonSeq atomic.Int64

func newPoison() string {
	return fmt.Sprintf("!poison:%d", poisonSeq.Add(1))
}

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
	// Debugging candidate, see SetVolatile): it records no events and will
	// not be captured, since its contents change on every probe and a
	// cached entry could never validate again. Nested windows opened after
	// the volatile import still record and insert normally.
	noInsert bool

	created    []string // modules created in-window, creation order
	createdSet map[string]bool
	events     []depEvent
	bindings   []snapBinding

	// Adoption: immutable snapshot nodes already built for in-window
	// modules by a nested entry (captured or replayed). Capture reuses
	// them instead of re-cloning the runtime graph, so each module's
	// namespace is cloned at most once per process-wide record, not once
	// per enclosing window. A module whose namespace is legally mutated
	// after its window closes (Import-loop submodule binding, or a
	// poisoning setattr the window itself contains) drops its adoption and
	// falls back to a live clone.
	//
	// The node mappings are kept as references to the nested installs'
	// and captures' own maps (adoptedMaps) and merged only if this window
	// actually captures: replays are ~100x more frequent than captures, so
	// copying (and for replays, inverting) the maps eagerly on every adopt
	// would dominate the replay fast path.
	adopted      map[string]snapAdoption
	adoptedMaps  []adoptedNodeMap
	adoptedWants []snapWant
	droppedDicts map[*Namespace]bool // revoked adoptions, skipped at merge

	clockStart  time.Duration
	usedStart   int64
	peakStart   int64
	fuelStart   int64
	idStart     int64
	stdoutStart int
	remoteStart int
}

// snapAdoption links an in-window module to its nested entry's snapshot,
// keeping the live namespace handle so a later mutation can revoke the
// adoption (and its node mapping) precisely.
type snapAdoption struct {
	sm   *snapModule
	dict *Namespace
}

// adoptedNodeMap is a borrowed node mapping from a nested install or
// capture. rtToNode reports the key direction: capture memos map runtime
// object -> node, install memos map node -> runtime object.
type adoptedNodeMap struct {
	m        map[any]any
	rtToNode bool
}

// adopt records a nested entry's modules, node mapping, and wants. The
// mapping is borrowed, not copied — see the adoptedMaps field comment. The
// borrowed map must not be mutated afterwards (both donors are done with
// theirs when they adopt).
func (r *snapRecorder) adopt(e *snapEntry, nodes map[any]any, rtToNode bool, in *Interp) {
	if r.adopted == nil {
		r.adopted = make(map[string]snapAdoption, len(e.mods))
	}
	for i := range e.mods {
		sm := &e.mods[i]
		if mod, ok := in.modules[sm.name]; ok {
			r.adopted[sm.name] = snapAdoption{sm: sm, dict: mod.Dict}
		}
	}
	r.adoptedMaps = append(r.adoptedMaps, adoptedNodeMap{m: nodes, rtToNode: rtToNode})
	r.adoptedWants = append(r.adoptedWants, e.wants...)
}

// dropAdoption reverts a module to live cloning after a post-window
// namespace mutation; deeper values stay adopted (the residual contract
// forbids mutating them at import time).
func (r *snapRecorder) dropAdoption(name string) {
	if a, ok := r.adopted[name]; ok {
		delete(r.adopted, name)
		if r.droppedDicts == nil {
			r.droppedDicts = make(map[*Namespace]bool, 1)
		}
		r.droppedDicts[a.dict] = true
	}
}

// seedCloner merges the borrowed node mappings into a capture's memo so
// already-snapshotted objects are referenced instead of re-cloned. Dicts of
// revoked adoptions are skipped (their namespaces must re-clone live).
func (r *snapRecorder) seedCloner(cl *snapCloner) {
	keep := func(rt any) bool {
		if r.droppedDicts == nil {
			return true
		}
		ns, ok := rt.(*Namespace)
		return !ok || !r.droppedDicts[ns]
	}
	for _, am := range r.adoptedMaps {
		if am.rtToNode {
			for rt, node := range am.m {
				if keep(rt) {
					cl.memo[rt] = node
				}
			}
		} else {
			for node, rt := range am.m {
				if keep(rt) {
					cl.memo[rt] = node
				}
			}
		}
	}
	for _, w := range r.adoptedWants {
		cl.wants[w] = true
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
// volatile module is about to execute inside them.
func (in *Interp) poisonOpenWindows() {
	for _, r := range in.recStack {
		r.noInsert = true
	}
}

// noteLoadedDep records an importOne early return on every active window.
func (in *Interp) noteLoadedDep(name string) {
	if !in.snapActive() || len(in.recStack) == 0 {
		return
	}
	partial := false
	for _, active := range in.importStack {
		if active == name {
			partial = true
			break
		}
	}
	if partial {
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
	for _, r := range in.recStack {
		if r.noInsert {
			continue
		}
		r.events = append(r.events, depEvent{kind: 'l', name: name, fp: fp})
	}
}

// noteBinding records the Import loop binding child into parent, and applies
// the deterministic sfp chain update (identically applied on replay).
func (in *Interp) noteBinding(parent, attr, child string) {
	if in.snap == nil || in.sfp == nil {
		return
	}
	childSfp, ok := in.sfp[child]
	if !ok {
		childSfp = newPoison()
		in.sfp[child] = childSfp
	}
	if _, ok := in.sfp[parent]; ok {
		in.sfp[parent] = bindHash(in.sfp[parent], attr, childSfp)
	}
	for _, r := range in.recStack {
		if r.noInsert {
			continue
		}
		if r.createdSet[parent] {
			// The binding mutates an in-window parent after its own window
			// closed; its adopted snapshot (if any) no longer matches, so
			// capture must re-clone it live.
			r.dropAdoption(parent)
		} else {
			r.bindings = append(r.bindings, snapBinding{parent: parent, attr: attr, child: child, childSfp: childSfp})
		}
	}
}

// notePoisonModule marks a module namespace as mutated after its import
// window closed: windows that did not create it can no longer replay the
// mutation, and its sfp is bumped so dependent entries stop validating.
func (in *Interp) notePoisonModule(name string) {
	if in.snap == nil {
		return
	}
	if n := len(in.recStack); n > 0 && in.recStack[n-1].name == name {
		return // the module's own body is still executing
	}
	for _, r := range in.recStack {
		if r.noInsert {
			continue
		}
		if !r.createdSet[name] {
			r.bad = true
		} else {
			// In-window module mutated after its window closed: the window
			// replays the mutation via its end-state clone, so only the
			// stale adoption must go.
			r.dropAdoption(name)
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
		// The window enclosed a volatile module: its event log is
		// deliberately incomplete, so publish an unmatchable sfp (dependent
		// entries must never validate against this state) and capture
		// nothing.
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
		// re-cloning the same modules at its own capture.
		if n := len(in.recStack); n > 0 && !in.recStack[n-1].noInsert {
			in.recStack[n-1].adopt(entry, nodes, true, in)
		}
	}
}

func (in *Interp) captureEntry(rec *snapRecorder, sfp string, idDelta int64) (*snapEntry, map[any]any) {
	cl := newSnapCloner(in, rec.createdSet)
	rec.seedCloner(cl)
	mods := make([]snapModule, 0, len(rec.created))
	for _, name := range rec.created {
		mod, ok := in.modules[name]
		if !ok {
			return nil, nil
		}
		if a, ok := rec.adopted[name]; ok {
			// Reuse the nested entry's immutable clone; only the sfp can
			// have moved since (submodule bind chaining).
			sm := *a.sm
			sm.sfp = in.sfp[name]
			mods = append(mods, sm)
			continue
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
	for _, b := range rec.bindings {
		cl.want(b.parent, "")
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
		bindings:     append([]snapBinding(nil), rec.bindings...),
		wants:        cl.sortedWants(),
		mods:         mods,
		clockDelta:   in.Clock.Now() - rec.clockStart,
		allocNet:     allocNet,
		allocPeakOff: peakOff,
		stmts:        rec.fuelStart - in.fuel,
		idDelta:      idDelta,
		usedID:       idDelta != 0,
		idStart:      rec.idStart,
		stdout:       sb.String()[rec.stdoutStart:],
		remote:       append([]RemoteCall(nil), in.RemoteLog[rec.remoteStart:]...),
		nodes:        len(cl.memo),
	}
	return e, cl.memo
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
	if e.usedID && in.idCounter != e.idStart {
		return false
	}
	createdSoFar := make(map[string]bool, len(e.mods))
	for i := range e.events {
		ev := &e.events[i]
		switch ev.kind {
		case 'c':
			if createdSoFar[ev.name] {
				return false
			}
			// A volatile module's content is probe-specific: no recorded
			// fingerprint can ever match it, and fingerprinting it here
			// would print the fresh candidate AST on every probe.
			if in.volatile[ev.name] {
				return false
			}
			if _, loaded := in.modules[ev.name]; loaded {
				return false
			}
			src, ok := in.resolveSourceCached(ev.name)
			if !ok || in.moduleFP(ev.name, src) != ev.fp {
				return false
			}
			createdSoFar[ev.name] = true
		case 'l':
			if createdSoFar[ev.name] {
				continue
			}
			if _, loaded := in.modules[ev.name]; !loaded {
				return false
			}
			if in.sfp[ev.name] != ev.fp {
				return false
			}
		case 'p':
			// Recorded only for in-window modules; nothing external to check.
		}
	}
	for _, w := range e.wants {
		m, ok := in.modules[w.mod]
		if !ok {
			return false
		}
		if w.attr != "" {
			if _, ok := m.Dict.Get(w.attr); !ok {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

// replayEntry applies a validated entry: virtual deltas, recorded output and
// side effects, and a fresh deep clone of the created module namespaces.
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

	inst := &snapInstaller{
		in:     in,
		memo:   make(map[any]any, e.nodes+len(e.mods)),
		filled: make(map[*snapNS]bool, len(e.mods)),
	}
	// Phase 1: create every module shell so references resolve during fill.
	for i := range e.mods {
		sm := &e.mods[i]
		mod := &ModuleV{Name: sm.name, Dict: newNamespaceSize(len(sm.dict.names)), File: sm.file}
		in.modules[sm.name] = mod
		inst.memo[sm.dict] = mod.Dict
	}
	// Phase 2: populate namespaces from the captured graph.
	for i := range e.mods {
		inst.ns(e.mods[i].dict)
	}
	for i := range e.mods {
		in.sfp[e.mods[i].name] = e.mods[i].sfp
	}
	// Bindings into pre-existing parent packages, with the same sfp chain
	// updates the live path applied (allocation is covered by the deltas).
	for _, b := range e.bindings {
		if parent, ok := in.modules[b.parent]; ok {
			parent.Dict.Set(b.attr, in.modules[b.child])
		}
		if _, ok := in.sfp[b.parent]; ok {
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
			if r.createdSet[b.parent] {
				r.dropAdoption(b.parent)
			} else {
				r.bindings = append(r.bindings, b)
			}
		}
	}
	// The innermost recorder adopts the entry's node graph: the runtime
	// objects this replay just installed map back to the entry's immutable
	// nodes, so the enclosing capture can reference instead of re-clone.
	// The installer memo is borrowed as-is (node -> runtime); the capture
	// inverts it only if it actually happens.
	if n := len(in.recStack); n > 0 && !in.recStack[n-1].noInsert {
		in.recStack[n-1].adopt(e, inst.memo, false, in)
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
	snapNS         struct {
		names []string
		vals  []any
	}
	snapFunc struct {
		name     string
		params   []pylang.Param
		body     []pylang.Stmt
		expr     pylang.Expr
		module   string
		cost     int64
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
	origin  map[any]any // runtime pointer -> ref node, for pre-existing aliasing
	memo    map[any]any // runtime pointer -> cloned node, preserves aliasing/cycles
	wants   map[snapWant]bool
	bad     bool
}

func newSnapCloner(in *Interp, created map[string]bool) *snapCloner {
	c := &snapCloner{
		in:      in,
		created: created,
		origin:  make(map[any]any),
		memo:    make(map[any]any),
		wants:   make(map[snapWant]bool),
	}
	// Index pre-existing modules' top-level values so aliases into them are
	// captured symbolically (preserving identity with the live originals at
	// replay time). Sorted module order keeps first-wins ties deterministic.
	names := make([]string, 0, len(in.modules))
	for n := range in.modules {
		if !created[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, mn := range names {
		m := in.modules[mn]
		if _, ok := c.origin[m.Dict]; !ok {
			c.origin[m.Dict] = &snapModDictRef{name: mn}
		}
		for _, attr := range m.Dict.Names() {
			v, _ := m.Dict.Get(attr)
			switch v.(type) {
			case NoneV, BoolV, IntV, FloatV, StrV, *RangeV, *NativeBuf, *ModuleV:
				continue
			}
			if _, ok := c.origin[v]; !ok {
				c.origin[v] = &snapOriginRef{mod: mn, attr: attr}
			}
		}
	}
	return c
}

func (c *snapCloner) want(mod, attr string) {
	c.wants[snapWant{mod: mod, attr: attr}] = true
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
		if o, isOrigin := ref.(*snapOriginRef); isOrigin {
			c.want(o.mod, o.attr)
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
		node := &snapFunc{
			name:   t.Name,
			params: t.Params,
			body:   t.Body,
			expr:   t.Expr,
			module: t.Module,
			cost:   t.Cost,
		}
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
	node := &snapNS{}
	c.memo[ns] = node
	for _, name := range ns.Names() {
		v, _ := ns.Get(name)
		node.names = append(node.names, name)
		node.vals = append(node.vals, c.clone(v))
	}
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

type snapInstaller struct {
	in     *Interp
	memo   map[any]any
	filled map[*snapNS]bool
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
		if m, ok := si.in.modules[t.mod]; ok {
			if v, ok := m.Dict.Get(t.attr); ok {
				return v
			}
		}
		return None // unreachable: wants were validated before replay
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
		f := &FuncV{
			Name:   t.name,
			Params: t.params,
			Body:   t.body,
			Expr:   t.expr,
			Module: t.module,
			Cost:   t.cost,
		}
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
		var ns *Namespace
		if v, ok := si.memo[t]; ok {
			ns = v.(*Namespace)
		} else {
			ns = newNamespaceSize(len(t.names))
			si.memo[t] = ns
		}
		if !si.filled[t] {
			// Mark before filling: a cycle re-entering mid-fill must get the
			// same (partially populated) namespace, as live execution would.
			si.filled[t] = true
			if len(ns.order) == 0 {
				// Fresh or still-empty shell: captured names are unique and
				// already in insertion order, so fill directly instead of
				// paying Set's membership check per attribute.
				ns.order = append(ns.order, t.names...)
				for i, name := range t.names {
					ns.m[name] = si.value(t.vals[i])
				}
			} else {
				for i, name := range t.names {
					ns.Set(name, si.value(t.vals[i]))
				}
			}
		}
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
