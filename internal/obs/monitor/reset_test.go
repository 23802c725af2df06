package monitor

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// A store-op sequence is three bytes per op: a kind, a series (an index
// into storeNames) and an argument. The kind's low four bits pick the op:
// opReset, opMerge, opSide, or any other value a record into both stores,
// through a Handle when bit 4 is set. Bits 5-7 place a record's window
// relative to the series' latest one: 0 a gap longer than the ring, 1-2
// late but inside the ring, 3 too old for the ring, 4-7 in order.
const (
	opReset = iota // empty the store under test; the reference starts fresh
	opMerge        // merge the side store into both stores
	opSide         // record into the side store
)

// opWindows is the ring capacity of every store an op sequence drives.
const opWindows = 37

var storeNames = []string{"a", "b", `c{k="v"}`, "d", "e", "f", "g", `x{k="v"}`}

// runStoreOps drives one store through ops, Reset included, next to a
// reference store created fresh at each Reset and fed the same samples.
// Along the way and at the end the two must agree on names, every window
// (Range and Scan), totals, dropped counts, the exposition, and a Merge of
// each into a fresh store. It returns how many series of the final store
// record into a ring a Reset emptied.
func runStoreOps(t *testing.T, ops []byte) int {
	t.Helper()
	st, ref, side := NewStore(time.Second, opWindows), NewStore(time.Second, opWindows), NewStore(time.Second, opWindows)
	handles := map[string]*Handle{}
	latest := map[string]int{}
	emptied := map[*Rollup]bool{}
	// check compares the stores' names, totals, dropped counts and every
	// window; a full check also compares the expositions and a Merge of
	// each into a fresh store.
	check := func(op int, full bool) {
		t.Helper()
		if !sameStore(st, ref) {
			t.Fatalf("after op %d, the reset store differs from a fresh one:\n%s\nvs\n%s", op, dumpStore(st), dumpStore(ref))
		}
		for _, name := range ref.Names() {
			se := ref.series[name]
			for w := max(se.latest-opWindows-1, 0); w <= se.latest+1; w++ {
				from, to := time.Duration(w)*time.Second, time.Duration(w+1)*time.Second
				if got, want := st.Range(name, from, to), ref.Range(name, from, to); got != want {
					t.Fatalf("after op %d, %s window %d: Range %+v, fresh store %+v", op, name, w, got, want)
				}
			}
		}
		if !full {
			return
		}
		var got, want strings.Builder
		StoreFamilies(&got, st, nil)
		StoreFamilies(&want, ref, nil)
		if got.String() != want.String() {
			t.Fatalf("after op %d, the exposition differs:\n%s\nvs\n%s", op, got.String(), want.String())
		}
		into, intoRef := NewStore(time.Second, opWindows), NewStore(time.Second, opWindows)
		if err := into.Merge(st); err != nil {
			t.Fatal(err)
		}
		if err := intoRef.Merge(ref); err != nil {
			t.Fatal(err)
		}
		if !sameStore(into, intoRef) {
			t.Fatalf("after op %d, a merge of the reset store differs from a fresh one's:\n%s\nvs\n%s", op, dumpStore(into), dumpStore(intoRef))
		}
	}
	sinceReset := 0
	for i := 0; i+3 <= len(ops); i += 3 {
		kind, name, arg := ops[i], storeNames[int(ops[i+1])%len(storeNames)], int(ops[i+2])
		switch kind % 16 {
		case opReset:
			check(i/3, true)
			for _, se := range st.series {
				emptied[&se.ring[0]] = true
			}
			st.Reset()
			ref = NewStore(time.Second, opWindows)
			clear(handles)
			sinceReset = 0
		case opMerge:
			if err := st.Merge(side); err != nil {
				t.Fatal(err)
			}
			if err := ref.Merge(side); err != nil {
				t.Fatal(err)
			}
		default:
			w := latest[name]
			switch kind >> 5 {
			case 0:
				w += opWindows + arg%(2*opWindows)
			case 1, 2:
				w -= arg % opWindows
			case 3:
				w -= opWindows + arg%opWindows
			default:
				w += arg % 3
			}
			w = max(w, 0)
			latest[name] = max(latest[name], w)
			at := time.Duration(w)*time.Second + time.Duration(arg)*time.Second/256
			v := float64(arg-128) / 7
			switch {
			case kind%16 == opSide:
				side.Record(name, at, v)
			case kind&16 != 0:
				h := handles[name]
				if h == nil {
					hh := st.Handle(name)
					h = &hh
					handles[name] = h
				}
				h.Record(at, v)
				ref.Record(name, at, v)
			default:
				st.Record(name, at, v)
				ref.Record(name, at, v)
			}
		}
		// A stale window is readable only until the ring advances past
		// it, so check often right after a Reset.
		if sinceReset < 20 || i%300 == 0 {
			check(i/3, false)
		}
		sinceReset++
	}
	check(len(ops)/3, true)
	n := 0
	for _, se := range st.series {
		if emptied[&se.ring[0]] {
			n++
		}
	}
	return n
}

// sameStore reports whether two stores read alike: the same names, and
// for each the same total, dropped count and windows (Scan).
func sameStore(a, b *Store) bool {
	type window struct {
		start time.Duration
		r     Rollup
	}
	scan := func(st *Store, name string) []window {
		var out []window
		st.Scan(name, 0, 1<<62, func(start time.Duration, r Rollup) { out = append(out, window{start, r}) })
		return out
	}
	names := a.Names()
	if !slices.Equal(names, b.Names()) {
		return false
	}
	for _, name := range names {
		if a.Total(name) != b.Total(name) || a.Dropped(name) != b.Dropped(name) ||
			!slices.Equal(scan(a, name), scan(b, name)) {
			return false
		}
	}
	return true
}

// storeOpsSeed is TestStoreReusedRings' sequence and FuzzStoreReset's
// seed: 1 000 samples over eight series, a Reset, then 2 000 ops over five
// series that mix in-order and late samples, samples too old for the ring
// and gaps longer than it, with side records, merges and a few more
// Resets.
func storeOpsSeed() []byte {
	rng := rand.New(rand.NewSource(17))
	var ops []byte
	record := func(series int) {
		kind := byte(3+rng.Intn(13)) | byte(rng.Intn(2))<<4 | byte(rng.Intn(8))<<5
		ops = append(ops, kind, byte(rng.Intn(series)), byte(rng.Intn(256)))
	}
	for i := 0; i < 1000; i++ {
		record(len(storeNames))
	}
	ops = append(ops, opReset, 0, 0)
	for i := 0; i < 2000; i++ {
		switch r := rng.Intn(400); {
		case r == 0:
			ops = append(ops, opReset, 0, 0)
		case r < 5:
			ops = append(ops, opMerge, 0, 0)
		case r < 20:
			ops = append(ops, opSide, byte(rng.Intn(5)), byte(rng.Intn(256)))
		default:
			record(5)
		}
	}
	return ops
}

// TestStoreReusedRings pins Store.Reset: a store whose series start on
// rings a Reset left dirty reads exactly like a fresh store fed the same
// samples (runStoreOps).
func TestStoreReusedRings(t *testing.T) {
	if n := runStoreOps(t, storeOpsSeed()); n == 0 {
		t.Fatal("no series of the reset store reused an emptied ring")
	}
	var nilStore *Store
	nilStore.Reset()
}

// FuzzStoreReset explores op sequences beyond TestStoreReusedRings' one.
// It runs at most 8 192 ops of an input, so that a long mutated input
// full of Resets (each followed by checks) keeps an exec short.
func FuzzStoreReset(f *testing.F) {
	f.Add(storeOpsSeed())
	f.Add([]byte{3, 0, 1, opReset, 0, 0, 3 | 16, 1, 200, opSide, 1, 9, opMerge, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runStoreOps(t, ops[:min(len(ops), 3*8192)])
	})
}
