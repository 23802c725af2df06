package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/appcorpus"
	"repro/internal/chaos"
	"repro/internal/faas"
	"repro/internal/trace"
)

// Archetype is one corpus application reduced to the four observables the
// fleet replay needs: cold-init latency and memory for each deployment
// arm, and the handler duration. The debloated arm subtracts the
// calibrated removable import time and memory mass — what λ-trim's
// pipeline recovers — without re-running the debloater per fleet member.
type Archetype struct {
	Name           string
	InitOriginal   time.Duration
	InitDebloated  time.Duration
	Exec           time.Duration
	MemOriginalMB  float64
	MemDebloatedMB float64
}

// Archetypes derives the fleet archetypes from the 21-app corpus. Each
// definition is built once to populate its removable-mass calibration
// (appcorpus sums it from the generated libraries during assembly).
func Archetypes() []Archetype {
	var out []Archetype
	for _, d := range appcorpus.Catalog() {
		d.Build()
		trimInit := d.ImportS - d.RemovableImportS
		if trimInit < 0.01 {
			trimInit = 0.01
		}
		trimMem := d.MemoryMB - d.RemovableMemMB
		if trimMem < 40 {
			trimMem = 40 // the interpreter base never debloats away
		}
		out = append(out, Archetype{
			Name:           d.Name,
			InitOriginal:   time.Duration(d.ImportS * float64(time.Second)),
			InitDebloated:  time.Duration(trimInit * float64(time.Second)),
			Exec:           time.Duration(d.ExecS * float64(time.Second)),
			MemOriginalMB:  d.MemoryMB,
			MemDebloatedMB: trimMem,
		})
	}
	return out
}

// PopConfig shapes a synthetic fleet population.
type PopConfig struct {
	// Functions is the fleet size; Period the replay day.
	Functions int
	Period    time.Duration
	// Seed keys every per-function draw; function i's parameters depend
	// only on (Seed, i), so populations are stable under resizing.
	Seed int64
	// DebloatedFraction is the probability a member deploys the debloated
	// arm of its archetype.
	DebloatedFraction float64
	// ArmMix, when non-empty, replaces DebloatedFraction with an explicit
	// arm distribution (shares summing to at most 1; the remainder
	// deploys "original"). The chaos experiment uses it to field the
	// fallback and breaker wrapper arms alongside the paper's two. Any
	// arm other than "original" uses the archetype's debloated init and
	// memory; "fallback" and "breaker" additionally carry FallbackInit,
	// the original image's cold init paid on uncovered paths.
	ArmMix []ArmShare
	// RateMedian and RateSigma shape the log-normal per-function daily
	// invocation rate (the Azure trace's heavy tail: most functions fire
	// a handful of times, a few carry most of the volume). RateCap bounds
	// the hottest function's expected daily count.
	RateMedian float64
	RateSigma  float64
	RateCap    float64
	// Pricing rounds memory configurations.
	Pricing faas.Pricing
}

// DefaultPopConfig is a 10k-function day: with the heavy-tailed rate
// shape below it expects on the order of 1-2 million arrivals.
func DefaultPopConfig() PopConfig {
	return PopConfig{
		Functions:         10000,
		Period:            24 * time.Hour,
		Seed:              1,
		DebloatedFraction: 0.5,
		RateMedian:        12,
		RateSigma:         2.2,
		RateCap:           40000,
		Pricing:           faas.AWSPricing(),
	}
}

// GeneratePopulation builds the fleet members. Each function draws its
// archetype, arm, rate, and jittered parameters from a private RNG seeded
// by (Seed, ID) — generation order, sharding, and fleet size do not
// perturb any member's identity. Arrivals are NOT materialized here; each
// member carries only its expected rate and stream seed.
func GeneratePopulation(pc PopConfig, archs []Archetype) []Function {
	if len(archs) == 0 {
		archs = Archetypes()
	}
	if pc.Pricing == (faas.Pricing{}) {
		pc.Pricing = faas.AWSPricing()
	}
	fns := make([]Function, 0, pc.Functions)
	// One generator, reseeded per member: a trace.Source reproduces
	// math/rand's sequence for every seed and reseeds several times
	// faster than allocating a fresh rand.NewSource.
	rng := rand.New(trace.NewSource(0))
	for id := 0; id < pc.Functions; id++ {
		h := exemplarFnKey(pc.Seed, id)
		rng.Seed(int64(h >> 1))
		a := archs[rng.Intn(len(archs))]
		// One arm draw regardless of mix shape, so switching between
		// DebloatedFraction and an equivalent ArmMix leaves every other
		// per-member parameter untouched (and the default two-arm path is
		// byte-identical to the pre-ArmMix generator).
		arm := "original"
		armDraw := rng.Float64()
		if len(pc.ArmMix) > 0 {
			arm = armFromMix(pc.ArmMix, armDraw)
		} else if armDraw < pc.DebloatedFraction {
			arm = "debloated"
		}
		init, mem := a.InitOriginal, a.MemOriginalMB
		if arm != "original" {
			init, mem = a.InitDebloated, a.MemDebloatedMB
		}
		daily := math.Exp(rng.NormFloat64()*pc.RateSigma + math.Log(pc.RateMedian))
		if pc.RateCap > 0 && daily > pc.RateCap {
			daily = pc.RateCap
		}
		if daily < 0.2 {
			daily = 0.2
		}
		rate := daily * pc.Period.Hours() / 24

		// Mild per-member jitter: two deployments of the same archetype
		// are similar, not identical.
		exec := jitter(rng, a.Exec, 0.25, time.Millisecond, 2*time.Minute)
		coldInit := jitter(rng, init, 0.10, time.Millisecond, 5*time.Minute)
		memMB := pc.Pricing.ConfigureMemory(mem * math.Exp(rng.NormFloat64()*0.10))

		// The wrapper arms pay the original image's cold init when the
		// fallback path fires. Derive it from the member's own jittered
		// debloated init by the archetype ratio — no extra draw, so the
		// stream stays aligned with the two-arm generator.
		var fallbackInit time.Duration
		if arm == "fallback" || arm == "breaker" {
			ratio := float64(a.InitOriginal) / float64(a.InitDebloated)
			fallbackInit = clampDuration(time.Duration(float64(coldInit)*ratio),
				time.Millisecond, 5*time.Minute)
		}

		fns = append(fns, Function{
			ID:           id,
			Name:         fmt.Sprintf("fleet-%05d", id),
			Archetype:    a.Name,
			Arm:          arm,
			ColdInit:     coldInit,
			Exec:         exec,
			FallbackInit: fallbackInit,
			MemoryMB:     memMB,
			Rate:         rate,
			Seed:         int64(splitmix64(h^0xA5A5A5A5A5A5A5A5) >> 1),
		})
	}
	return fns
}

// jitter scales d log-normally with the given sigma, clamped to
// [lo, hi].
func jitter(rng *rand.Rand, d time.Duration, sigma float64, lo, hi time.Duration) time.Duration {
	return clampDuration(time.Duration(float64(d)*math.Exp(rng.NormFloat64()*sigma)), lo, hi)
}

func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// ArmShare is one entry of PopConfig.ArmMix.
type ArmShare struct {
	Arm  string
	Frac float64
}

// ChaosArmMix is the population a chaos replay fields: a quarter each of
// the debloated, fallback-wrapper and breaker-protected arms, with the
// remaining quarter original — the wrapper arms alongside the paper's
// two, so one incident day exercises the fallback double-bill and the
// breaker together.
func ChaosArmMix() []ArmShare {
	return []ArmShare{
		{Arm: chaos.ArmDebloated, Frac: 0.25},
		{Arm: chaos.ArmFallback, Frac: 0.25},
		{Arm: chaos.ArmBreaker, Frac: 0.25},
	}
}

// armFromMix walks the cumulative shares; the leftover mass deploys the
// original arm.
func armFromMix(mix []ArmShare, draw float64) string {
	cum := 0.0
	for _, s := range mix {
		cum += s.Frac
		if draw < cum {
			return s.Arm
		}
	}
	return "original"
}
