package monitor

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// dirtyStore fills a store with data unrelated to any later test sequence
// and releases it, so its rings wait on the free list with stale windows.
// It returns the released rings' first elements, to recognize them.
func dirtyStore(rng *rand.Rand, res time.Duration, windows int) map[*Rollup]bool {
	st := NewStore(res, windows)
	for i := 0; i < 2000; i++ {
		name := []string{"a", "b", "c", "d", "e", "f", "g", "h", `x{k="v"}`, "y"}[rng.Intn(10)]
		st.Record(name, time.Duration(rng.Intn(3*windows))*res, 1e6+rng.Float64())
	}
	rings := map[*Rollup]bool{}
	for _, se := range st.series {
		rings[&se.ring[0]] = true
	}
	st.Release()
	return rings
}

// reusedRings counts the series of st whose ring came from rings.
func reusedRings(st *Store, rings map[*Rollup]bool) int {
	n := 0
	for _, se := range st.series {
		if rings[&se.ring[0]] {
			n++
		}
	}
	return n
}

// TestStoreReusedRings pins the free-list contract: a store whose series
// start on rings a released store left dirty reads exactly like a fresh
// store fed the same samples. The sequence mixes in-order and late
// samples, samples too old for the ring, and gaps longer than the ring.
// The stores must agree on names, every window through Range and Scan,
// totals, dropped counts, a Merge into a third store (itself on dirty
// rings), and the exposition.
func TestStoreReusedRings(t *testing.T) {
	const windows = 37 // a capacity no other test uses, so the free list holds only these rings
	res := time.Second
	rng := rand.New(rand.NewSource(17))
	fresh := NewStore(res, windows)
	reused := NewStore(res, windows)
	released := dirtyStore(rng, res, windows)
	names := []string{"a", "b", `c{k="v"}`, "d", "e"}
	latest := map[string]int{}
	handles := map[string]*Handle{}
	for _, name := range names {
		h := reused.Handle(name)
		handles[name] = &h
	}
	end := 0
	for i := 0; i < 4000; i++ {
		name := names[rng.Intn(len(names))]
		w := latest[name]
		switch rng.Intn(10) {
		case 0: // a gap longer than the ring
			w += windows + rng.Intn(2*windows)
		case 1, 2: // late, inside the ring
			w -= rng.Intn(windows)
		case 3: // too old for the ring: dropped
			w -= windows + rng.Intn(windows)
		default: // in order
			w += rng.Intn(3)
		}
		if w < 0 {
			w = 0
		}
		if w > latest[name] {
			latest[name] = w
		}
		if w > end {
			end = w
		}
		at := time.Duration(w)*res + time.Duration(rng.Intn(1000))*time.Millisecond
		v := rng.NormFloat64()
		fresh.Record(name, at, v)
		handles[name].Record(at, v)
		// Check along the way too: a stale window is readable only until
		// the ring advances past it.
		if i < 50 || i%100 == 0 {
			if got, want := dumpStore(reused), dumpStore(fresh); got != want {
				t.Fatalf("after sample %d, the store on reused rings differs from a fresh one:\n%s\nvs\n%s", i, got, want)
			}
		}
	}
	if n := reusedRings(reused, released); n == 0 {
		t.Fatal("no series of the second store reused a released ring")
	}
	if got, want := dumpStore(reused), dumpStore(fresh); got != want {
		t.Fatalf("store on reused rings differs from a fresh one:\n%s\nvs\n%s", got, want)
	}
	for _, name := range names {
		for w := 0; w <= end+1; w++ {
			from, to := time.Duration(w)*res, time.Duration(w+1)*res
			if got, want := reused.Range(name, from, to), fresh.Range(name, from, to); got != want {
				t.Fatalf("%s window %d: Range %+v, fresh store %+v", name, w, got, want)
			}
		}
		if got, want := reused.Dropped(name), fresh.Dropped(name); got != want {
			t.Fatalf("%s: Dropped %d, fresh store %d", name, got, want)
		}
	}
	var got, want strings.Builder
	StoreFamilies(&got, reused, nil)
	StoreFamilies(&want, fresh, nil)
	if got.String() != want.String() {
		t.Fatalf("exposition differs:\n%s\nvs\n%s", got.String(), want.String())
	}

	// Merge each into a third store; the one that takes the reused store
	// starts on dirty rings too.
	intoFresh := NewStore(res, windows)
	released = dirtyStore(rng, res, windows)
	intoReused := NewStore(res, windows)
	for _, m := range []struct{ dst, src *Store }{{intoFresh, fresh}, {intoReused, reused}} {
		m.dst.Record("a", time.Duration(end/2)*res, 5)
		if err := m.dst.Merge(m.src); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("merge target: %d of %d series on released rings", reusedRings(intoReused, released), len(intoReused.series))
	if got, want := dumpStore(intoReused), dumpStore(intoFresh); got != want {
		t.Fatalf("merge on reused rings differs from a fresh one:\n%s\nvs\n%s", got, want)
	}

	reused.Release()
	if n := len(reused.Names()); n != 0 {
		t.Fatalf("a released store still names %d series", n)
	}
	var nilStore *Store
	nilStore.Release()
}
