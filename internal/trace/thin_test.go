package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// exactThreshold is the thinning threshold computed with math.Sin: a
// candidate is kept when u is below it. It is the definition thinner.keep
// must reproduce.
func exactThreshold(base, maxRate, phase float64) float64 {
	return base * (1 + 0.6*math.Sin(phase-math.Pi/2)) / maxRate
}

// checkKeep compares the squeeze decision with the definition for the
// given draw, for the draws at the exact threshold and 1 to 4 ulps on
// either side of it, and for the draws at both edges of the band.
func checkKeep(t testing.TB, th *thinner, phase, u float64) {
	t.Helper()
	thr := exactThreshold(th.base, th.maxRate, phase)
	var us [13]float64
	us[0], us[1] = u, thr
	lo, hi := thr, thr
	for i := 0; i < 4; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		us[2+2*i], us[3+2*i] = lo, hi
	}
	n := 10
	if k := int(phase * (1 / sinStep)); uint(k) < sinNodes {
		nd := &sinTable[k]
		est := th.c0 + th.c1*(nd.sin+nd.cos*(phase-math.Pi/2-sinNode(k)))
		us[10], us[11], us[12] = est-squeezeBand, est+squeezeBand, est
		n = 13
	}
	for _, u := range us[:n] {
		if got, want := th.keep(phase, u), u < thr; got != want {
			t.Fatalf("base %v phase %v (%#x) u %v: keep = %v, math.Sin decides %v",
				th.base, phase, math.Float64bits(phase), u, got, want)
		}
	}
}

// TestThinningSqueezeDecisions checks the squeeze decision against the
// math.Sin comparison at a million random phases, at every table node and
// one ulp either side of it, and within an ulp of 2π, for uniform draws
// and for draws at and around the exact threshold. The rates span the
// streams' range and include the smallest the band covers; a stream's
// peak rate is base·1.6 as poissonStream computes it.
func TestThinningSqueezeDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bases := []float64{0.5 / 86400, 1, 1e4 / 86400, 3e9, minSqueezeRate, 1e-310}
	phases := 1_000_000
	if testing.Short() {
		phases = 100_000
	}
	for _, base := range bases {
		th := newThinner(base, base*1.6)
		for i := 0; i < phases/len(bases); i++ {
			checkKeep(t, &th, rng.Float64()*2*math.Pi, rng.Float64())
		}
		for k := 0; k < sinNodes; k++ {
			x := float64(k) * sinStep
			for _, p := range []float64{math.Nextafter(x, -1), x, math.Nextafter(x, 7)} {
				checkKeep(t, &th, p, rng.Float64())
			}
		}
		for _, p := range []float64{math.Nextafter(2*math.Pi, 0), 2 * math.Pi, math.Nextafter(2*math.Pi, 7)} {
			checkKeep(t, &th, p, rng.Float64())
		}
	}
}

// sinLoopArrivals is poissonStream's loop with math.Sin deciding every
// candidate: the reference the stream must match.
func sinLoopArrivals(seed int64, expected float64, period time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	base := expected / period.Seconds()
	maxRate := base * 1.6
	var out []time.Duration
	t := 0.0
	limit := period.Seconds()
	for {
		t += rng.ExpFloat64() / maxRate
		if t >= limit {
			return out
		}
		phase := 2 * math.Pi * t / limit
		rate := base * (1 + 0.6*math.Sin(phase-math.Pi/2))
		if rng.Float64() < rate/maxRate {
			out = append(out, time.Duration(t*float64(time.Second)))
		}
	}
}

// TestArrivalStreamMatchesSinLoop replays 2,000 seeded streams, with
// expected day counts spread log-uniformly from 0.5 to 10⁴, and demands
// every offset of the math.Sin loop, in order.
func TestArrivalStreamMatchesSinLoop(t *testing.T) {
	const seeds = 2000
	n := seeds
	if testing.Short() {
		n = 200
	}
	total := 0
	for i := 0; i < n; i++ {
		seed := int64(i)*7919 + 1
		expected := 0.5 * math.Pow(2e4, float64(i)/(seeds-1))
		want := sinLoopArrivals(seed, expected, 24*time.Hour)
		next := ArrivalStream(seed, expected, 24*time.Hour)
		for j, w := range want {
			got, ok := next()
			if !ok || got != w {
				t.Fatalf("seed %d expected %.3f: arrival %d = %v, %v; the math.Sin loop has %v",
					seed, expected, j, got, ok, w)
			}
		}
		if got, ok := next(); ok {
			t.Fatalf("seed %d expected %.3f: arrival %d = %v past the math.Sin loop's %d",
				seed, expected, len(want), got, len(want))
		}
		total += len(want)
	}
	t.Logf("%d streams, %d arrivals", n, total)
}

// FuzzThinningSqueeze checks the squeeze decision against the math.Sin
// comparison for any phase, draw and expected day count a stream accepts.
func FuzzThinningSqueeze(f *testing.F) {
	f.Add(0.0, 0.5, 1.0)
	f.Add(sinStep, 0.25, 1e4)
	f.Add(math.Pi, 0.999, 0.5)
	f.Add(math.Nextafter(2*math.Pi, 0), 0.625, 140.0)
	f.Add(-sinStep/2, 0.1, 3.0)
	f.Add(1.0, 0.6, 1e300)
	f.Add(2.0, 0.3, 1e-305)
	f.Fuzz(func(t *testing.T, phase, u, expected float64) {
		base := expected / (24 * time.Hour).Seconds()
		maxRate := base * 1.6
		if math.IsNaN(maxRate) || math.IsInf(maxRate, 0) || maxRate <= 0 {
			return // the stream yields nothing at this rate
		}
		th := newThinner(base, maxRate)
		checkKeep(t, &th, phase, u)
	})
}

var keepSink int

// BenchmarkThinningKeep compares the squeeze decision with the math.Sin
// comparison it replaces, over uniform phases and draws.
func BenchmarkThinningKeep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var phases, us [4096]float64
	for i := range phases {
		phases[i], us[i] = rng.Float64()*2*math.Pi, rng.Float64()
	}
	th := newThinner(1, 1.6)
	b.Run("squeeze", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			if th.keep(phases[i%len(phases)], us[i%len(us)]) {
				n++
			}
		}
		keepSink = n
	})
	b.Run("math.Sin", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			if us[i%len(us)] < exactThreshold(th.base, th.maxRate, phases[i%len(phases)]) {
				n++
			}
		}
		keepSink = n
	})
}
