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
// table: word i takes steps 21+3i, 22+3i and 23+3i. The standard library
// runs all those steps at Seed. A Source fills the register lazily
// instead: Seed only positions two Lehmer chains, at words 333 and 606,
// and each of the first 334 outputs writes just the words it reads,
// stepping the chains back one word at a time with a division-free
// Mersenne fold. A stream that draws a few dozen outputs before the next
// reseed computes a few dozen words, not 607. A Source is not safe for
// concurrent use.
type Source struct {
	tap  int
	feed int
	// unfilled counts the register words below srcFeed that no output has
	// read yet: output k (k ≤ srcFeed) reads word srcFeed−k, which the
	// fill writes just before. Every word is written once it reaches 0.
	unfilled int
	// lo and hi are the Lehmer states (step 21+3i) of the next words the
	// fill writes: word unfilled−1 and word unfilled−1+srcTap.
	lo, hi uint64
	vec    [srcLen]int64
}

const (
	srcLen  = 607
	srcTap  = 273
	srcFeed = srcLen - srcTap // the feed index Seed starts at
	srcMask = 1<<63 - 1

	lehmerMod  = 1<<31 - 1
	lehmerMul  = 48271
	lehmerMul2 = lehmerMul * lehmerMul % lehmerMod
	lehmerMul3 = lehmerMul2 * lehmerMul % lehmerMod
	// zeroSeed replaces a seed that is 0 modulo lehmerMod, whose Lehmer
	// chain would be all zeros.
	zeroSeed = 89482311
)

var (
	// srcCooked is the table each register word is XOR-ed with at Seed.
	srcCooked = recoverCooked()
	// lehmerBack steps a word's Lehmer state to the word below it:
	// 48271⁻³ mod (2³¹−1), which Fermat's little theorem gives as
	// 48271^(2³¹−1−4).
	lehmerBack = lehmerPow(lehmerMod - 4)
	// lehmerLo and lehmerHi take a seed to the Lehmer states of the words
	// the first output reads, srcFeed−1 and srcLen−1.
	lehmerLo = lehmerPow(21 + 3*(srcFeed-1))
	lehmerHi = lehmerPow(21 + 3*(srcLen-1))
)

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

// lehmerPow returns 48271ⁿ mod (2³¹−1).
func lehmerPow(n int) uint64 {
	r, b := uint64(1), uint64(lehmerMul)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = lehmerStep(r, b)
		}
		b = lehmerStep(b, b)
	}
	return r
}

// lehmerWord is the uncooked register word whose first Lehmer step is a:
// that step and the two after it, at bits 40, 20 and 0.
func lehmerWord(a uint64) int64 {
	return int64(a<<40 ^ lehmerStep(a, lehmerMul)<<20 ^ lehmerStep(a, lehmerMul2))
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
// The seed is normalized as math/rand normalizes it.
func (s *Source) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.tap = 0
	s.feed = srcFeed
	s.unfilled = srcFeed
	s.lo = lehmerStep(uint64(seed), lehmerLo)
	s.hi = lehmerStep(uint64(seed), lehmerHi)
}

// fill writes the register words the next output reads before any output
// has: its feed word, and, among the first srcTap outputs, its tap word.
func (s *Source) fill() {
	s.unfilled--
	i := s.unfilled
	s.vec[i] = lehmerWord(s.lo) ^ srcCooked[i]
	s.lo = lehmerStep(s.lo, lehmerBack)
	if j := i + srcTap; j >= srcFeed {
		s.vec[j] = lehmerWord(s.hi) ^ srcCooked[j]
		s.hi = lehmerStep(s.hi, lehmerBack)
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	if s.unfilled > 0 {
		s.fill()
	}
	return int64(s.step() & srcMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	if s.unfilled > 0 {
		s.fill()
	}
	return s.step()
}

// step is one lagged-Fibonacci step over a register whose next words are
// written. It is small enough to inline into Int63 and Uint64, so the
// fill check is the only cost a drained register adds.
func (s *Source) step() uint64 {
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
		reg[(srcFeed-k+srcLen)%srcLen] = int64(src.Uint64())
	}
	for k := srcLen; k >= 1; k-- {
		reg[(srcFeed-k+srcLen)%srcLen] -= reg[srcLen-k]
	}
	a := lehmerPow(21)
	for i := range reg {
		reg[i] ^= lehmerWord(a)
		a = lehmerStep(a, lehmerMul3)
	}
	return reg
}
