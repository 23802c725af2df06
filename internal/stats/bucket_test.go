package stats

import (
	"math"
	"math/rand"
	"testing"
)

// checkBucket compares the table lookup with the defining log form on one
// positive finite value. It runs tens of millions of times, so it
// marks no helper frame unless it fails.
func checkBucket(t testing.TB, v float64) {
	if got, want := histBucket(v), histBucketLog(v); got != want {
		t.Helper()
		t.Fatalf("histBucket(%v [%#x]) = %d, histBucketLog = %d", v, math.Float64bits(v), got, want)
	}
}

// TestHistBucketMatchesLog checks histBucket against histBucketLog on
// every float64 within ±100k ulps of each bucket bound, on random bit
// patterns, subnormals and the extremes.
//
// The neighbourhoods suffice. Within a binade, histBucketLog computes
// floor(8·(log10 v + 9)) with an error of a few ulps of the argument,
// about 1e-13 buckets. 100k ulps of v move the exact argument by about
// 8·1e5·2⁻⁵²/ln 10 ≈ 8e-11 buckets, so outside the neighbourhood of every
// bound the exact argument is further from an integer than rounding can
// reach: the log form returns the exact floor there, and so does the table,
// whose bounds each lie inside their neighbourhood.
func TestHistBucketMatchesLog(t *testing.T) {
	ulps := uint64(100_000)
	if testing.Short() {
		ulps = 1_000
	}
	for i := 1; i < HistogramBuckets; i++ {
		b := math.Float64bits(histLower[i])
		if histBucketLog(histLower[i]) != i || histBucketLog(math.Float64frombits(b-1)) != i-1 {
			t.Fatalf("bound %d (%v) is not where the log form steps from %d to %d", i, histLower[i], i-1, i)
		}
		for x := b - ulps; x <= b+ulps; x++ {
			checkBucket(t, math.Float64frombits(x))
		}
	}
	rng := rand.New(rand.NewSource(8))
	for n := 0; n < 1_000_000; n++ {
		x := rng.Uint64() >> 1 // positive
		if v := math.Float64frombits(x); v != 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
			checkBucket(t, v)
		}
	}
	for _, v := range []float64{math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074, 0x1p-1022,
		1e-300, 1e-9, 1, 10, 1e12, 1e300, math.MaxFloat64} {
		checkBucket(t, v)
	}
	for x := uint64(1); x < 1<<20; x++ { // the smallest subnormals
		checkBucket(t, math.Float64frombits(x))
	}
	// Each binade holds at most three bounds, so a lookup makes at most
	// three compares past its start bucket.
	for e := 1; e < len(histStart)-1; e++ {
		if n := int(histStart[e+1]) - int(histStart[e]); n > 3 {
			t.Errorf("binade %d spans %d bounds", e, n)
		}
	}
}

func FuzzHistBucket(f *testing.F) {
	for _, v := range []float64{math.SmallestNonzeroFloat64, 1e-9, 0.001, 1, 1.333, 1e12, math.MaxFloat64} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, x uint64) {
		v := math.Float64frombits(x &^ (1 << 63))
		if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		checkBucket(t, v)
	})
}

// quantileFullScan is Quantile as it was defined before the bounded scan:
// a walk over every bucket from the first, with representatives from the
// log-form expression.
func quantileFullScan(h *Histogram, q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	cum := float64(h.zeros)
	if cum >= target {
		return h.clamp(0)
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum >= target {
			return h.clamp(math.Pow(10, float64(histMinDecade)+(float64(i)+0.5)/histBucketsPerDecade))
		}
	}
	return h.max
}

// TestQuantileMatchesFullScan checks the bounded scan against the full
// one on random histograms: log-uniform values across and beyond the
// bucket range (so the edge buckets clamp), zeros, and merges of
// histograms whose minima differ.
func TestQuantileMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func(h *Histogram) {
		lo, span := -14+28*rng.Float64(), 6*rng.Float64()
		zeros := rng.Intn(3) == 0
		for n := rng.Intn(60); n > 0; n-- {
			if zeros && rng.Intn(4) == 0 {
				h.Observe(0)
				continue
			}
			h.Observe(math.Pow(10, lo+span*rng.Float64()))
		}
	}
	qs := []float64{-0.5, 0, 0.001, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1, 1.5}
	for n := 0; n < 5000; n++ {
		var h Histogram
		draw(&h)
		if rng.Intn(2) == 0 {
			var o Histogram
			draw(&o)
			h.Merge(&o)
		}
		for _, q := range append(qs, rng.Float64()) {
			if got, want := h.Quantile(q), quantileFullScan(&h, q); got != want {
				t.Fatalf("histogram %d: Quantile(%v) = %v, full scan %v (min %v, zeros %d)", n, q, got, want, h.min, h.zeros)
			}
		}
	}
}

var bucketSink int

func BenchmarkHistBucket(b *testing.B) {
	vs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range vs {
		vs[i] = math.Pow(10, -4+6*rng.Float64())
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bucketSink += histBucket(vs[i&1023])
		}
	})
	b.Run("log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bucketSink += histBucketLog(vs[i&1023])
		}
	})
}
