package stats

import "math"

// Histogram bucket layout. The layout is fixed so that any two Histograms
// are mergeable by bucket-wise addition: buckets are log-scale with
// histBucketsPerDecade buckets per decade, spanning 10^histMinDecade up to
// 10^histMaxDecade. Values are unit-agnostic; the observability layer
// observes latencies in seconds, so the range covers nanoseconds up to
// ~31 years with a relative bucket width of 10^(1/8) ≈ 1.33.
const (
	histBucketsPerDecade = 8
	histMinDecade        = -9
	histMaxDecade        = 12

	// HistogramBuckets is the fixed bucket count of every Histogram.
	HistogramBuckets = (histMaxDecade - histMinDecade) * histBucketsPerDecade
)

// Histogram is a fixed-layout log-scale histogram with approximate
// quantiles. The zero value is ready to use. It is not safe for concurrent
// use; the metrics registry serializes access.
//
// Quantile estimates carry the bucket's relative error (≤ 10^(1/8)-1 ≈ 33%
// in the worst case, typically much less), which is the usual trade for
// mergeability and O(1) observation. Exact extremes are tracked separately,
// so Quantile(0) and Quantile(1) are exact.
type Histogram struct {
	counts [HistogramBuckets]uint64
	// zeros counts non-positive observations (they have no log bucket).
	zeros uint64
	count uint64
	sum   float64
	min   float64
	max   float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucketLog is the defining bucket map: a positive value's bucket by
// its base-10 logarithm, with values outside the representable range
// clamped into the edge buckets. Only the init-time tables below call it;
// histBucket answers the same from them.
func histBucketLog(v float64) int {
	idx := int(math.Floor((math.Log10(v) - histMinDecade) * histBucketsPerDecade))
	if idx < 0 {
		return 0
	}
	if idx >= HistogramBuckets {
		return HistogramBuckets - 1
	}
	return idx
}

var (
	// histValue[i] is bucket i's representative, its geometric midpoint.
	histValue [HistogramBuckets]float64
	// histLower[i] is the smallest float64 histBucketLog puts in bucket i
	// or above (0 for bucket 0), and the +Inf past the last bucket ends
	// histBucket's search.
	histLower [HistogramBuckets + 1]float64
	// histStart[e] is the bucket of the smallest positive float64 whose
	// biased binary exponent is e (0 to 2046: every finite float64). A
	// binade spans log10(2)·8 ≈ 2.4 buckets, so it holds at most three
	// lower bounds.
	histStart [2047]uint8
)

// The tables come from the log form on the running machine, so every
// architecture buckets exactly as its math.Log10 does.
func init() {
	for i := range histValue {
		histValue[i] = math.Pow(10, float64(histMinDecade)+(float64(i)+0.5)/histBucketsPerDecade)
	}
	// Positive float64s order as their bit patterns do, so each bound is
	// a bisection over patterns between the smallest subnormal (bucket 0)
	// and MaxFloat64 (the last bucket).
	for i := 1; i < HistogramBuckets; i++ {
		lo, hi := uint64(1), math.Float64bits(math.MaxFloat64)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if histBucketLog(math.Float64frombits(mid)) >= i {
				hi = mid
			} else {
				lo = mid
			}
		}
		histLower[i] = math.Float64frombits(hi)
	}
	histLower[HistogramBuckets] = math.Inf(1)
	b := 0
	for e := range histStart {
		least := math.Float64frombits(uint64(e) << 52)
		if e == 0 {
			least = math.SmallestNonzeroFloat64
		}
		for least >= histLower[b+1] {
			b++
		}
		histStart[e] = uint8(b)
	}
}

// histBucket maps a positive finite value to its bucket: the bucket its
// binary exponent starts in, stepped past at most three lower bounds. It
// returns histBucketLog(v) for every such v.
func histBucket(v float64) int {
	i := int(histStart[math.Float64bits(v)>>52])
	for v >= histLower[i+1] {
		i++
	}
	return i
}

// Observe records one value. Zero is counted in a dedicated zero bucket
// (it has no log-scale bucket). NaN, infinities, and negative values are
// rejected outright: the layer observes durations and sizes, so such
// values are always instrumentation bugs, and admitting even one would
// poison Sum, Mean, and every quantile of the series for the whole run.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v == 0 {
		h.zeros++
		return
	}
	h.counts[histBucket(v)]++
}

// Merge folds o into h bucket-wise. A nil or empty o is a no-op, and so is
// merging a histogram into itself: h.Merge(h) must leave h unchanged, not
// double every bucket.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o == h || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	h.zeros += o.zeros
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Quantile estimates the q-th quantile, q in [0, 1]. The estimate is the
// geometric midpoint of the bucket holding the target rank, clamped to the
// exact observed [Min, Max]. Empty histograms yield 0.
func (h *Histogram) Quantile(q float64) float64 {
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
		// The rank falls among the non-positive observations.
		return h.clamp(0)
	}
	// No positive observation lies below min's bucket, and Merge keeps
	// min the least of both sides, so the scan starts there: hedging's
	// per-request p95 reads a function's few occupied buckets, not all.
	start := 0
	if h.min > 0 {
		start = histBucket(h.min)
	}
	for i := start; i < HistogramBuckets; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum >= target {
			return h.clamp(histValue[i])
		}
	}
	return h.max
}

func (h *Histogram) clamp(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}
