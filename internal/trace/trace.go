// Package trace generates synthetic serverless invocation traces with the
// statistical shape of the Microsoft Azure Functions trace (Shahrad et al.,
// ATC'20) and simulates keep-alive instance pools over them. The paper uses
// the real trace to quantify SnapStart's checkpoint storage and restore
// costs (Figures 13 and 14); this reproduction substitutes a generator that
// preserves the properties those figures depend on:
//
//   - per-function daily invocation counts are extremely heavy-tailed (most
//     functions run a handful of times a day, a few run millions);
//   - arrivals follow a diurnally-modulated Poisson process;
//   - per-function durations and memory footprints are log-normally
//     distributed around sub-second / low-hundreds-of-MB modes.
package trace

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Function is one synthetic serverless function with its invocation times.
type Function struct {
	ID         int
	MemoryMB   float64
	DurationMS float64
	// Arrivals are invocation offsets from the trace start, sorted.
	Arrivals []time.Duration
}

// Trace is a set of functions over a common period.
type Trace struct {
	Period    time.Duration
	Functions []Function
}

// GenConfig parameterizes trace generation.
type GenConfig struct {
	Functions int
	Period    time.Duration
	Seed      int64
}

// DefaultGenConfig is a day-long trace of 250 functions, the scale at which
// the CDF of Figure 13 is smooth while the pool simulation stays fast.
func DefaultGenConfig() GenConfig {
	return GenConfig{Functions: 250, Period: 24 * time.Hour, Seed: 1}
}

// Generate builds a synthetic trace.
func Generate(cfg GenConfig) *Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Period: cfg.Period}
	for i := 0; i < cfg.Functions; i++ {
		fn := Function{ID: i}
		// Log-normal daily rate: median ~2000 invocations/day with σ=3.0
		// gives the extreme skew observed by Shahrad et al. — most
		// functions fire a handful of times an hour, the hottest reach
		// millions/day (capped to keep simulation tractable; the cap only
		// flattens ratios that are already near zero).
		daily := math.Exp(rng.NormFloat64()*3.0 + math.Log(2000))
		scaled := daily * cfg.Period.Hours() / 24
		if scaled > 100000 {
			scaled = 100000
		}
		if scaled < 0.2 {
			scaled = 0.2
		}
		// Duration: log-normal, median 1.5 s.
		fn.DurationMS = math.Exp(rng.NormFloat64()*1.1 + math.Log(1500))
		if fn.DurationMS > 60000 {
			fn.DurationMS = 60000
		}
		if fn.DurationMS < 1 {
			fn.DurationMS = 1
		}
		// Memory: log-normal, median 170 MB, floored at Lambda's minimum.
		fn.MemoryMB = math.Exp(rng.NormFloat64()*0.7 + math.Log(170))
		if fn.MemoryMB < 128 {
			fn.MemoryMB = 128
		}
		if fn.MemoryMB > 4096 {
			fn.MemoryMB = 4096
		}
		fn.Arrivals = poissonArrivals(rng, scaled, cfg.Period)
		tr.Functions = append(tr.Functions, fn)
	}
	return tr
}

// poissonArrivals samples a diurnally-modulated Poisson process with the
// given expected total count over the period, by thinning.
func poissonArrivals(rng *rand.Rand, expected float64, period time.Duration) []time.Duration {
	var out []time.Duration
	next := poissonStream(rng, expected, period)
	for {
		at, ok := next()
		if !ok {
			return out
		}
		out = append(out, at)
	}
}

// poissonStream is the streaming core of poissonArrivals: it yields the
// same thinned, diurnally-modulated arrival sequence one offset at a time
// (peak mid-period at 1.6x, trough at 0.4x — the day/night swing in the
// Azure trace) without materializing the sequence. A rate that is not
// positive and finite yields nothing: under NaN or +Inf the thinning loop
// would never advance t. Each candidate draws ExpFloat64 then Float64, and
// thinner.keep decides it exactly as math.Sin would (see thin.go).
func poissonStream(rng *rand.Rand, expected float64, period time.Duration) func() (time.Duration, bool) {
	base := expected / period.Seconds()
	maxRate := base * 1.6
	if math.IsNaN(maxRate) || math.IsInf(maxRate, 0) || maxRate <= 0 {
		return func() (time.Duration, bool) { return 0, false }
	}
	th := newThinner(base, maxRate)
	t := 0.0
	limit := period.Seconds()
	return func() (time.Duration, bool) {
		for {
			t += rng.ExpFloat64() / maxRate
			if t >= limit {
				return 0, false
			}
			if th.keep(2*math.Pi*t/limit, rng.Float64()) {
				return time.Duration(t * float64(time.Second)), true
			}
		}
	}
}

// ArrivalStream returns a deterministic generator of diurnally-modulated
// Poisson arrivals for one function, seeded independently of any shared
// RNG. Successive calls yield sorted offsets within [0, period) and then
// (0, false) forever. Because each stream owns its seed, a sharded fleet
// replay can generate per-function workloads on any number of workers in
// any order and still produce exactly the arrivals a sequential generation
// would have produced — and it never materializes the sequence, so memory
// stays flat no matter how hot the function is.
func ArrivalStream(seed int64, expected float64, period time.Duration) func() (time.Duration, bool) {
	return poissonStream(rand.New(NewSource(seed)), expected, period)
}

// ArrivalStreamFrom is ArrivalStream over a caller-owned generator: it
// reseeds rng with seed and draws the stream from it, so a replay shard can
// reuse one generator across its functions instead of allocating a source
// per function. The offsets are exactly ArrivalStream(seed, expected,
// period)'s when rng draws from a Source or from math/rand's own source;
// a Source reseeds in nanoseconds and fills only the register words the
// stream reads. The stream owns rng until it is drained or abandoned.
func ArrivalStreamFrom(rng *rand.Rand, seed int64, expected float64, period time.Duration) func() (time.Duration, bool) {
	rng.Seed(seed)
	return poissonStream(rng, expected, period)
}

// PoolResult summarizes a keep-alive simulation of one function.
type PoolResult struct {
	Invocations int
	ColdStarts  int
	WarmStarts  int
	// MaxInstances is the peak concurrent instance count.
	MaxInstances int
}

// PoolEvent describes one served arrival during a keep-alive simulation:
// its offset on the trace timeline, whether it paid a cold start, and the
// live instance count right after assignment. Events are delivered in
// arrival order, which the fleet monitor relies on for its virtual-time
// feed.
type PoolEvent struct {
	At   time.Duration
	Cold bool
	Live int
}

// Slice adapts sorted arrival offsets to the iterator form the pool
// simulation consumes: it yields each offset in order and then (0, false).
func Slice(arrivals []time.Duration) func() (time.Duration, bool) {
	i := 0
	return func() (time.Duration, bool) {
		if i >= len(arrivals) {
			return 0, false
		}
		at := arrivals[i]
		i++
		return at, true
	}
}

// SimulatePoolStream runs the keep-alive instance-pool dynamics: each
// arrival is served warm when a non-expired idle instance exists, cold
// otherwise. next() yields sorted offsets and then (0, false) — a
// materialized trace goes through Slice. The observer, when non-nil, is
// invoked once per served arrival, in arrival order, and cannot perturb the
// dynamics. The pool state is bounded by the function's peak concurrency,
// so a stream of millions of arrivals simulates in flat memory — the
// substrate the sharded fleet replay engine runs on. It is the zero-gate
// form of SimulatePoolGated.
func SimulatePoolStream(next func() (time.Duration, bool), duration time.Duration, keepAlive time.Duration, observe func(PoolEvent)) PoolResult {
	return SimulatePoolGated(next, duration, keepAlive, PoolGate{}, observe)
}

// PoolGate hooks the pool dynamics for a chaos layer. Every hook is
// optional; the zero gate reproduces SimulatePoolStream bit-for-bit.
type PoolGate struct {
	// Admit decides whether the arrival reaches the platform at all. A
	// false return drops the arrival: it is not counted, not assigned an
	// instance, and not observed (the gate owner accounts for it).
	Admit func(at time.Duration) bool
	// Busy returns how long the assigned instance is held for this
	// arrival (nil: the fixed duration argument). Called once per served
	// arrival, after the cold/warm decision.
	Busy func(at time.Duration, cold bool) time.Duration
	// Flush returns the latest instance-recycle instant at or before the
	// arrival (negative: none): instances freed at or before the cut are
	// gone — a churn wave's staggered host recycle. Instances busy across
	// the cut survive (they are running, not idle).
	Flush func(at time.Duration) time.Duration
}

// SimulatePoolGated is SimulatePoolStream with a chaos gate over
// admission, hold time, and instance churn.
func SimulatePoolGated(next func() (time.Duration, bool), duration time.Duration, keepAlive time.Duration, gate PoolGate, observe func(PoolEvent)) PoolResult {
	type inst struct {
		freeAt time.Duration
	}
	var pool []inst
	var res PoolResult
	for {
		at, ok := next()
		if !ok {
			return res
		}
		if gate.Admit != nil && !gate.Admit(at) {
			continue
		}
		cut := time.Duration(-1)
		if gate.Flush != nil {
			cut = gate.Flush(at)
		}
		res.Invocations++
		// Find the most-recently-freed idle, non-expired instance (greedy
		// MRU assignment minimizes cold starts for a single function).
		best := -1
		for i := range pool {
			if pool[i].freeAt <= at && at-pool[i].freeAt <= keepAlive && pool[i].freeAt > cut {
				if best < 0 || pool[i].freeAt > pool[best].freeAt {
					best = i
				}
			}
		}
		cold := best < 0
		busy := duration
		if gate.Busy != nil {
			busy = gate.Busy(at, cold)
		}
		if !cold {
			res.WarmStarts++
			pool[best].freeAt = at + busy
		} else {
			res.ColdStarts++
			// Expired (or churned-away) idle instances can be dropped
			// opportunistically.
			live := pool[:0]
			for _, p := range pool {
				if (p.freeAt > at || at-p.freeAt <= keepAlive) && p.freeAt > cut {
					live = append(live, p)
				}
			}
			pool = append(live, inst{freeAt: at + busy})
		}
		if len(pool) > res.MaxInstances {
			res.MaxInstances = len(pool)
		}
		if observe != nil {
			observe(PoolEvent{At: at, Cold: cold, Live: len(pool)})
		}
	}
}

// NearestFunction returns the trace function minimizing the L2 norm of
// (memoryMB, durationMS) distance to the target — the paper's matching rule
// for Figure 14 ("similarity is quantified as the L2 norm of memory and
// duration"). Both axes are normalized by the trace's own scale so neither
// dominates.
func (t *Trace) NearestFunction(memoryMB, durationMS float64) *Function {
	if len(t.Functions) == 0 {
		return nil
	}
	var memScale, durScale float64
	for _, f := range t.Functions {
		memScale += f.MemoryMB
		durScale += f.DurationMS
	}
	memScale /= float64(len(t.Functions))
	durScale /= float64(len(t.Functions))

	var best *Function
	bestD := math.Inf(1)
	for i := range t.Functions {
		f := &t.Functions[i]
		if len(f.Arrivals) == 0 {
			continue // a function that never fires cannot drive a simulation
		}
		dm := (f.MemoryMB - memoryMB) / memScale
		dd := (f.DurationMS - durationMS) / durScale
		d := dm*dm + dd*dd
		if d < bestD {
			bestD = d
			best = f
		}
	}
	return best
}

// SortedArrivals ensures a function's arrivals are sorted (generation
// already emits sorted times; this is a safety for hand-built traces).
func (f *Function) SortedArrivals() []time.Duration {
	out := make([]time.Duration, len(f.Arrivals))
	copy(out, f.Arrivals)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
