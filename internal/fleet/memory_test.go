package fleet

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chaos"
	"repro/internal/obs/monitor"
)

// replayPeakGrowth replays pop and returns (peak GC'd heap growth over
// the pre-replay baseline, invocations). The peak is sampled at block
// merge boundaries via the engine's blockDone hook — the points where a
// leak proportional to invocation volume would be visible.
func replayPeakGrowth(t *testing.T, pop []Function) (uint64, uint64) {
	t.Helper()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	peak := base.HeapAlloc

	cfg := Config{
		Workers: 2,
		Period:  24 * time.Hour,
		Seed:    1,
		blockDone: func(merged int) {
			if merged%4 != 0 {
				return // a GC per merge would dominate the test's runtime
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		},
	}
	res, err := Replay(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if end.HeapAlloc > peak {
		peak = end.HeapAlloc
	}
	return peak - base.HeapAlloc, res.Invocations
}

// TestReplayMemoryFlat pins the streaming contract: a replay with ~10x
// the arrivals may not grow the peak resident heap meaningfully beyond
// the smaller run's — memory is bounded by 2×workers shard stores (plus
// the merged result), not by invocation volume. A per-invocation leak of
// even 16 bytes would add ~14 MB at the large scale and fail the bound.
func TestReplayMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-flatness run skipped under -short")
	}
	mkPop := func(scale float64) []Function {
		return scaleRates(GeneratePopulation(PopConfig{
			Functions: 2000, Period: 24 * time.Hour, Seed: 6,
		}, testArchetypes()), scale)
	}
	smallGrowth, smallInv := replayPeakGrowth(t, mkPop(0.5))
	largeGrowth, largeInv := replayPeakGrowth(t, mkPop(5))
	t.Logf("small: %d invocations, peak growth %.1f MB", smallInv, float64(smallGrowth)/(1<<20))
	t.Logf("large: %d invocations, peak growth %.1f MB", largeInv, float64(largeGrowth)/(1<<20))

	if smallInv < 80_000 {
		t.Fatalf("small run too small to compare: %d invocations", smallInv)
	}
	if largeInv < 8*smallInv {
		t.Fatalf("large run not large enough: %d vs %d invocations", largeInv, smallInv)
	}
	// Identical stores/windows/population size → near-identical footprint.
	// The slack absorbs GC timing noise, nothing more: it stays far below
	// what any per-invocation retention would cost.
	limit := smallGrowth + smallGrowth/2 + 8<<20
	if largeGrowth > limit {
		t.Errorf("peak heap grew with invocation volume: %d -> %d bytes (limit %d)",
			smallGrowth, largeGrowth, limit)
	}
}

// TestReplayReusesShardRings pins the shard-store bound: a 700-function,
// 64-block chaos replay with labeled series allocates, in all, less than
// half the ring bytes 64 fresh shard stores would take. The shards record
// into 2×workers stores, each emptied by Store.Reset once merged, so the
// bound holds however far the workers run ahead of the merge. It runs
// under GOMAXPROCS 1, where the merge lags the most, so a replay whose
// shards could outrun the stores fails it.
func TestReplayReusesShardRings(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pop := GeneratePopulation(PopConfig{
		Functions: 700, Period: 6 * time.Hour, Seed: 4, ArmMix: ChaosArmMix(),
	}, testArchetypes())
	cfg := testConfig(2)
	cfg.SLOs = DefaultChaosSLOs()
	cfg.Chaos = &chaos.Config{Incidents: testIncidents(t), Mitigations: chaos.AllMitigations()}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Replay(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	windows := ringWindows(cfg.Period, pop)
	ring := uint64(windows) * uint64(unsafe.Sizeof(monitor.Rollup{}))
	fresh := uint64(blockCount) * uint64(len(res.Store.Names())) * ring
	t.Logf("%d series of %d windows: 64 fresh shard stores hold %.1f MB of rings; the replay allocated %.1f MB",
		len(res.Store.Names()), windows, float64(fresh)/(1<<20), float64(allocated)/(1<<20))
	if allocated >= fresh/2 {
		t.Errorf("the replay allocated %d bytes, want under half of the %d bytes of 64 fresh shard stores' rings", allocated, fresh)
	}
}
