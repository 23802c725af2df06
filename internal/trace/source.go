package trace

import "math/rand"

// Source is math/rand's Go 1 generator (the one rand.NewSource returns)
// with a faster Seed. rand.New(NewSource(s)) yields exactly the sequence
// rand.New(rand.NewSource(s)) does, for every seed, so a caller that
// reseeds per item can switch to it without changing one output bit.
//
// The generator is an additive lagged-Fibonacci register of 607 words.
// Seeding fills the register from 3·607 steps of the Lehmer generator
// x → 48271x mod (2³¹−1), after 20 discarded steps, XOR-ed with a fixed
// table. The standard library runs those steps as one dependent chain of
// Schrage divisions; Seed runs them as three independent chains (one per
// word part) with multiplier 48271³ and a division-free Mersenne fold, so
// the CPU overlaps them. A Source is not safe for concurrent use.
type Source struct {
	tap  int
	feed int
	vec  [srcLen]int64
}

const (
	srcLen  = 607
	srcTap  = 273
	srcMask = 1<<63 - 1

	lehmerMod  = 1<<31 - 1
	lehmerMul  = 48271
	lehmerMul3 = lehmerMul * lehmerMul % lehmerMod * lehmerMul % lehmerMod
	// zeroSeed replaces a seed that is 0 modulo lehmerMod, whose Lehmer
	// chain would be all zeros.
	zeroSeed = 89482311
)

// srcCooked is the table each register word is XOR-ed with at Seed.
var srcCooked = recoverCooked()

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// lehmerStep is one Lehmer step x·m mod (2³¹−1) for x, m in [1, 2³¹−1):
// the product is below 2⁶², and two folds of its high bits onto its low
// bits (2³¹ ≡ 1) bring it into [1, 2³¹−1) — it is never 0 or the modulus,
// because neither factor is divisible by the prime.
func lehmerStep(x, m uint64) uint64 {
	y := x * m
	y = y&lehmerMod + y>>31
	return y&lehmerMod + y>>31
}

// seedWords writes the 607 Lehmer words of seed, normalized the way
// math/rand normalizes it, each XOR-ed with the matching word of mask,
// into w.
func seedWords(seed int64, mask, w *[srcLen]int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	// Word i takes steps 21+3i, 22+3i and 23+3i of the chain.
	a := uint64(seed)
	for i := 0; i < 21; i++ {
		a = lehmerStep(a, lehmerMul)
	}
	b := lehmerStep(a, lehmerMul)
	c := lehmerStep(b, lehmerMul)
	for i := range w {
		w[i] = int64(a<<40^b<<20^c) ^ mask[i]
		a = lehmerStep(a, lehmerMul3)
		b = lehmerStep(b, lehmerMul3)
		c = lehmerStep(c, lehmerMul3)
	}
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seedWords(seed, &srcCooked, &s.vec)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & srcMask) }

// Uint64 returns a pseudo-random 64-bit integer: one lagged-Fibonacci step.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// recoverCooked derives the seeding table from math/rand itself rather
// than copying it. Output k of a freshly seeded source (k = 1, 2, …) adds
// register words (334−k) mod 607 and (607−k) mod 607 and overwrites the
// first, so after 607 outputs every word holds the output that wrote it.
// Undoing the additions newest first recovers the initial register, and
// XOR-ing out seed 1's Lehmer words leaves the table.
func recoverCooked() [srcLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var reg [srcLen]int64
	for k := 1; k <= srcLen; k++ {
		reg[(srcLen-srcTap-k+srcLen)%srcLen] = int64(src.Uint64())
	}
	for k := srcLen; k >= 1; k-- {
		reg[(srcLen-srcTap-k+srcLen)%srcLen] -= reg[srcLen-k]
	}
	var w [srcLen]int64
	seedWords(1, new([srcLen]int64), &w)
	for i := range reg {
		reg[i] ^= w[i]
	}
	return reg
}
