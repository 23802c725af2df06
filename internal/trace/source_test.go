package trace

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds whose normalization has a special case: zero
// and the Lehmer modulus (both map to the fixed replacement seed), the
// replacement seed itself, values just past the modulus, and the int64
// extremes, whose remainders are the most negative and most positive.
var sourceSeeds = []int64{
	0, 1, -1, lehmerMod, -lehmerMod, lehmerMod - 1, -(lehmerMod - 1),
	lehmerMod + 1, 1 << 31, -(1 << 31), zeroSeed, -zeroSeed,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// checkSource compares a Source seeded with seed against math/rand's
// generator for n raw outputs of each kind and for every derived draw the
// repository takes through rand.Rand. The draw counts run past the 607-word
// register, so the comparison covers words the feedback has rewritten.
func checkSource(t testing.TB, s *Source, seed int64, n int) {
	t.Helper()
	s.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if g, w := s.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 #%d = %d, want %d", seed, i, g, w)
		}
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 #%d = %d, want %d", seed, i, g, w)
		}
	}
	s.Seed(seed)
	got, ref := rand.New(s), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := got.ExpFloat64(), ref.ExpFloat64(); g != w {
			t.Fatalf("seed %d: ExpFloat64 #%d = %v, want %v", seed, i, g, w)
		}
		if g, w := got.Float64(), ref.Float64(); g != w {
			t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, i, g, w)
		}
		if g, w := got.NormFloat64(), ref.NormFloat64(); g != w {
			t.Fatalf("seed %d: NormFloat64 #%d = %v, want %v", seed, i, g, w)
		}
		if g, w := got.Intn(21+i), ref.Intn(21+i); g != w {
			t.Fatalf("seed %d: Intn #%d = %d, want %d", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand checks that Source reproduces math/rand's
// sequence on the special seeds and thousands of random ones, reseeding
// one Source throughout as the fleet replay does.
func TestSourceMatchesMathRand(t *testing.T) {
	s := NewSource(0)
	for _, seed := range sourceSeeds {
		checkSource(t, s, seed, 2*srcLen)
	}
	n := 4000
	if testing.Short() {
		n = 400
	}
	pick := rand.New(rand.NewSource(19))
	for i := 0; i < n; i++ {
		seed := int64(pick.Uint64())
		if i%2 == 0 {
			seed = int64(pick.Int31()) // seeds below the modulus too
		}
		checkSource(t, s, seed, srcLen+3)
	}
}

func FuzzSourceSeed(f *testing.F) {
	for _, seed := range sourceSeeds {
		f.Add(seed)
	}
	s := NewSource(0)
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSource(t, s, seed, srcLen+3)
	})
}

var seedSink int64

func BenchmarkSourceSeed(b *testing.B) {
	b.Run("trace.Source", func(b *testing.B) {
		s := NewSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
		seedSink = s.Int63()
	})
	b.Run("math/rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
		seedSink = s.Int63()
	})
}
