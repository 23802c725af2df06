package trace

import (
	"reflect"
	"testing"
	"time"
)

func gateArrivals() []time.Duration {
	var out []time.Duration
	for at := time.Duration(0); at < time.Hour; at += 37 * time.Second {
		out = append(out, at)
	}
	return out
}

// TestPassThroughGateMatchesStream: a gate whose hooks are all identity
// functions must reproduce the ungated pool event-for-event — the zero
// gate's bit-for-bit contract, exercised through non-nil hooks.
func TestPassThroughGateMatchesStream(t *testing.T) {
	arrivals := gateArrivals()
	const busy = 800 * time.Millisecond
	const keepAlive = 2 * time.Minute

	var plainEvents []PoolEvent
	plain := SimulatePoolStream(Slice(arrivals), busy, keepAlive, func(e PoolEvent) {
		plainEvents = append(plainEvents, e)
	})

	gate := PoolGate{
		Admit: func(time.Duration) bool { return true },
		Busy:  func(time.Duration, bool) time.Duration { return busy },
		Flush: func(time.Duration) time.Duration { return -1 },
	}
	var gatedEvents []PoolEvent
	gated := SimulatePoolGated(Slice(arrivals), busy, keepAlive, gate, func(e PoolEvent) {
		gatedEvents = append(gatedEvents, e)
	})

	if plain != gated {
		t.Fatalf("results differ: %+v vs %+v", plain, gated)
	}
	if !reflect.DeepEqual(plainEvents, gatedEvents) {
		t.Fatal("event streams differ under a pass-through gate")
	}
}

// TestGateAdmitDrops: a dropped arrival never reaches the pool — not
// counted, not assigned, not observed.
func TestGateAdmitDrops(t *testing.T) {
	arrivals := gateArrivals()
	kept := 0
	gate := PoolGate{Admit: func(at time.Duration) bool { return at >= 10*time.Minute }}
	res := SimulatePoolGated(Slice(arrivals), time.Second, time.Minute, gate, func(e PoolEvent) {
		kept++
		if e.At < 10*time.Minute {
			t.Fatalf("dropped arrival observed at %v", e.At)
		}
	})
	want := 0
	for _, at := range arrivals {
		if at >= 10*time.Minute {
			want++
		}
	}
	if res.Invocations != want || kept != want {
		t.Fatalf("served %d, observed %d, want %d", res.Invocations, kept, want)
	}
}

// TestGateFlushCut: instances freed at or before the flush cut are gone
// (the churn wave's host recycle), so an arrival that would have been warm
// pays a cold start instead.
func TestGateFlushCut(t *testing.T) {
	arrivals := []time.Duration{0, 5 * time.Second}
	run := func(cut time.Duration) PoolResult {
		gate := PoolGate{Flush: func(time.Duration) time.Duration { return cut }}
		return SimulatePoolGated(Slice(arrivals), time.Second, time.Hour, gate, nil)
	}
	// No cut: the instance freed at 1s serves the 5s arrival warm.
	if res := run(-1); res.WarmStarts != 1 || res.ColdStarts != 1 {
		t.Fatalf("uncut: %+v, want 1 cold + 1 warm", res)
	}
	// Cut at 2s: the instance freed at 1s is recycled; both arrivals cold.
	if res := run(2 * time.Second); res.ColdStarts != 2 || res.WarmStarts != 0 {
		t.Fatalf("cut at 2s: %+v, want 2 cold", res)
	}
	// Cut at 500ms: the instance was busy across the cut and survives.
	if res := run(500 * time.Millisecond); res.WarmStarts != 1 {
		t.Fatalf("cut at 500ms: %+v, want the busy instance to survive", res)
	}
}
