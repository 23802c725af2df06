package trace

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Functions: 50, Period: 24 * time.Hour, Seed: 7}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Functions) != len(b.Functions) {
		t.Fatal("function counts differ")
	}
	for i := range a.Functions {
		if len(a.Functions[i].Arrivals) != len(b.Functions[i].Arrivals) {
			t.Fatalf("fn %d arrivals differ", i)
		}
		if a.Functions[i].MemoryMB != b.Functions[i].MemoryMB {
			t.Fatalf("fn %d memory differs", i)
		}
	}
	c := Generate(GenConfig{Functions: 50, Period: 24 * time.Hour, Seed: 8})
	same := true
	for i := range a.Functions {
		if len(a.Functions[i].Arrivals) != len(c.Functions[i].Arrivals) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateShape(t *testing.T) {
	tr := Generate(DefaultGenConfig())
	if len(tr.Functions) != DefaultGenConfig().Functions {
		t.Fatalf("functions = %d", len(tr.Functions))
	}
	var counts []int
	for _, f := range tr.Functions {
		counts = append(counts, len(f.Arrivals))
		if f.MemoryMB < 128 || f.MemoryMB > 4096 {
			t.Errorf("memory out of range: %f", f.MemoryMB)
		}
		if f.DurationMS < 1 || f.DurationMS > 60000 {
			t.Errorf("duration out of range: %f", f.DurationMS)
		}
		// Arrivals sorted within the period.
		for i := 1; i < len(f.Arrivals); i++ {
			if f.Arrivals[i] < f.Arrivals[i-1] {
				t.Fatal("arrivals not sorted")
			}
		}
		if len(f.Arrivals) > 0 && f.Arrivals[len(f.Arrivals)-1] >= tr.Period {
			t.Error("arrival past the period")
		}
	}
	// Heavy tail: the mean daily count far exceeds the median (the
	// defining skew of the Azure trace), and the hottest function dwarfs
	// the typical one.
	maxC, total := 0, 0
	zero := 0
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	median := sorted[len(sorted)/2]
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
		if c == 0 {
			zero++
		}
		total += c
	}
	mean := total / len(counts)
	if mean < 3*(median+1) {
		t.Errorf("tail too light: mean %d vs median %d", mean, median)
	}
	if maxC < 10*(median+1) {
		t.Errorf("hottest function %d not far above median %d", maxC, median)
	}
	if zero > len(counts)/2 {
		t.Errorf("%d of %d functions never fire", zero, len(counts))
	}
}

func TestSimulatePoolAllWarmWhenDense(t *testing.T) {
	arrivals := []time.Duration{0, time.Minute, 2 * time.Minute, 3 * time.Minute}
	res := SimulatePoolStream(Slice(arrivals), time.Second, 10*time.Minute, nil)
	if res.ColdStarts != 1 || res.WarmStarts != 3 {
		t.Errorf("res = %+v, want 1 cold 3 warm", res)
	}
	if res.MaxInstances != 1 {
		t.Errorf("max instances = %d", res.MaxInstances)
	}
}

func TestSimulatePoolAllColdWhenSparse(t *testing.T) {
	arrivals := []time.Duration{0, time.Hour, 2 * time.Hour}
	res := SimulatePoolStream(Slice(arrivals), time.Second, time.Minute, nil)
	if res.ColdStarts != 3 || res.WarmStarts != 0 {
		t.Errorf("res = %+v, want all cold", res)
	}
}

func TestSimulatePoolConcurrency(t *testing.T) {
	// Two overlapping requests need two instances.
	arrivals := []time.Duration{0, time.Millisecond}
	res := SimulatePoolStream(Slice(arrivals), time.Second, 10*time.Minute, nil)
	if res.ColdStarts != 2 {
		t.Errorf("overlapping arrivals should both be cold: %+v", res)
	}
	if res.MaxInstances != 2 {
		t.Errorf("max instances = %d, want 2", res.MaxInstances)
	}
	// A third request after both finish reuses one.
	arrivals = append(arrivals, 2*time.Second)
	res = SimulatePoolStream(Slice(arrivals), time.Second, 10*time.Minute, nil)
	if res.WarmStarts != 1 {
		t.Errorf("third arrival should be warm: %+v", res)
	}
}

func TestSimulatePoolKeepAliveBoundary(t *testing.T) {
	arrivals := []time.Duration{0, time.Second + 5*time.Minute}
	dur := time.Second
	// Second arrival lands exactly at the keep-alive horizon: still warm.
	res := SimulatePoolStream(Slice(arrivals), dur, 5*time.Minute, nil)
	if res.WarmStarts != 1 {
		t.Errorf("boundary arrival should be warm: %+v", res)
	}
	// One nanosecond later: cold.
	res = SimulatePoolStream(Slice([]time.Duration{0, time.Second + 5*time.Minute + 1}), dur, 5*time.Minute, nil)
	if res.ColdStarts != 2 {
		t.Errorf("past-boundary arrival should be cold: %+v", res)
	}
}

func TestNearestFunction(t *testing.T) {
	tr := &Trace{
		Period: time.Hour,
		Functions: []Function{
			{ID: 0, MemoryMB: 128, DurationMS: 100, Arrivals: []time.Duration{0}},
			{ID: 1, MemoryMB: 1000, DurationMS: 5000, Arrivals: []time.Duration{0}},
			{ID: 2, MemoryMB: 500, DurationMS: 900, Arrivals: nil}, // never fires
		},
	}
	if fn := tr.NearestFunction(130, 110); fn.ID != 0 {
		t.Errorf("nearest to small = %d", fn.ID)
	}
	if fn := tr.NearestFunction(900, 4500); fn.ID != 1 {
		t.Errorf("nearest to big = %d", fn.ID)
	}
	// Functions without arrivals are never matched.
	if fn := tr.NearestFunction(500, 900); fn.ID == 2 {
		t.Error("matched a function that never fires")
	}
}

func TestSortedArrivals(t *testing.T) {
	f := Function{Arrivals: []time.Duration{3, 1, 2}}
	sorted := f.SortedArrivals()
	if sorted[0] != 1 || sorted[2] != 3 {
		t.Errorf("sorted = %v", sorted)
	}
	// Original untouched.
	if f.Arrivals[0] != 3 {
		t.Error("SortedArrivals mutated the function")
	}
}

// Property: pool accounting always balances, and instance count never
// exceeds the number of arrivals.
func TestQuickPoolInvariants(t *testing.T) {
	f := func(raw []uint32, durMS uint16, kaSec uint16) bool {
		arrivals := make([]time.Duration, len(raw))
		var acc time.Duration
		for i, r := range raw {
			acc += time.Duration(r%100000) * time.Millisecond
			arrivals[i] = acc
		}
		dur := time.Duration(durMS) * time.Millisecond
		ka := time.Duration(kaSec) * time.Second
		res := SimulatePoolStream(Slice(arrivals), dur, ka, nil)
		if res.ColdStarts+res.WarmStarts != len(arrivals) {
			return false
		}
		if res.MaxInstances > len(arrivals) {
			return false
		}
		if len(arrivals) > 0 && res.ColdStarts < 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: longer keep-alive never increases cold starts.
func TestQuickKeepAliveMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		arrivals := make([]time.Duration, len(raw))
		var acc time.Duration
		for i, r := range raw {
			acc += time.Duration(r) * time.Second / 4
			arrivals[i] = acc
		}
		short := SimulatePoolStream(Slice(arrivals), time.Second, time.Minute, nil)
		long := SimulatePoolStream(Slice(arrivals), time.Second, time.Hour, nil)
		return long.ColdStarts <= short.ColdStarts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSimulatePoolObservedMatchesResult(t *testing.T) {
	arrivals := []time.Duration{0, time.Millisecond, 2 * time.Second, time.Hour}
	var events []PoolEvent
	obs := SimulatePoolStream(Slice(arrivals), time.Second, 5*time.Minute, func(ev PoolEvent) {
		events = append(events, ev)
	})
	plain := SimulatePoolStream(Slice(arrivals), time.Second, 5*time.Minute, nil)
	if obs != plain {
		t.Errorf("observer changed the result: %+v vs %+v", obs, plain)
	}
	if len(events) != len(arrivals) {
		t.Fatalf("events = %d, want one per arrival", len(events))
	}
	cold := 0
	for i, ev := range events {
		if ev.At != arrivals[i] {
			t.Errorf("event %d at %v, want arrival order %v", i, ev.At, arrivals[i])
		}
		if ev.Cold {
			cold++
		}
		if ev.Live < 1 {
			t.Errorf("event %d live = %d, want >= 1", i, ev.Live)
		}
	}
	if cold != obs.ColdStarts {
		t.Errorf("observed %d colds, result says %d", cold, obs.ColdStarts)
	}
	// The overlapping pair needs two live instances.
	if events[1].Live != 2 {
		t.Errorf("second overlapping arrival live = %d, want 2", events[1].Live)
	}
}

// The pool over a lazily generated arrival stream matches, event for
// event, the pool over the same arrivals materialized into a slice.
func TestSimulatePoolStreamMatchesSlice(t *testing.T) {
	const period = 2 * time.Hour
	for seed := int64(1); seed <= 12; seed++ {
		dur := time.Duration(seed) * 150 * time.Millisecond
		rate := float64(seed * seed * 40)
		var arrivals []time.Duration
		next := ArrivalStream(seed, rate, period)
		for at, ok := next(); ok; at, ok = next() {
			arrivals = append(arrivals, at)
		}
		var sliceEvents, streamEvents []PoolEvent
		want := SimulatePoolStream(Slice(arrivals), dur, 10*time.Minute, func(ev PoolEvent) {
			sliceEvents = append(sliceEvents, ev)
		})
		got := SimulatePoolStream(ArrivalStream(seed, rate, period), dur, 10*time.Minute, func(ev PoolEvent) {
			streamEvents = append(streamEvents, ev)
		})
		if got != want {
			t.Fatalf("seed %d: stream result %+v != slice result %+v", seed, got, want)
		}
		if len(streamEvents) != len(sliceEvents) {
			t.Fatalf("seed %d: %d stream events vs %d slice events", seed, len(streamEvents), len(sliceEvents))
		}
		for j := range streamEvents {
			if streamEvents[j] != sliceEvents[j] {
				t.Fatalf("seed %d event %d: %+v != %+v", seed, j, streamEvents[j], sliceEvents[j])
			}
		}
	}
}

func TestArrivalStreamDeterministicAndSorted(t *testing.T) {
	collect := func() []time.Duration {
		next := ArrivalStream(42, 500, 6*time.Hour)
		var out []time.Duration
		for {
			at, ok := next()
			if !ok {
				return out
			}
			out = append(out, at)
		}
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatal("expected arrivals from a 500-expected stream")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d: %v != %v (same seed)", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals out of order at %d: %v < %v", i, a[i], a[i-1])
		}
		if a[i] < 0 || a[i] >= 6*time.Hour {
			t.Fatalf("arrival %d = %v outside the period", i, a[i])
		}
	}
	// Count should be in the right ballpark for the expected rate.
	if len(a) < 300 || len(a) > 800 {
		t.Errorf("arrival count %d implausible for expected 500", len(a))
	}
	// Exhausted streams keep returning false.
	next := ArrivalStream(42, 0, time.Hour)
	if _, ok := next(); ok {
		t.Error("zero-rate stream should be empty")
	}
	// Different seeds diverge.
	c := ArrivalStream(43, 500, 6*time.Hour)
	c0, _ := c()
	if c0 == a[0] {
		t.Error("different seeds should produce different first arrivals")
	}
}

// A non-finite expected count yields no arrivals instead of spinning: under
// NaN or +Inf the thinning loop never advanced its clock. Each stream is
// drained under a deadline.
func TestArrivalStreamNonFiniteRateEnds(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		done := make(chan int, 1)
		go func() {
			n := 0
			next := ArrivalStream(1, rate, time.Hour)
			for _, ok := next(); ok; _, ok = next() {
				n++
			}
			done <- n
		}()
		select {
		case n := <-done:
			if n != 0 {
				t.Errorf("rate %v: %d arrivals, want none", rate, n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("rate %v: ArrivalStream still running after 5s", rate)
		}
	}
}
