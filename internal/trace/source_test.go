package trace

import (
	"fmt"
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

// checkReseed draws before outputs of seed from s, reseeds it with next,
// and compares every output, before and after, with math/rand's
// generator: after the reseed, 2·607 of them, alternating Uint64 and
// Int63, so they run through the lazy fill and past the register.
func checkReseed(t testing.TB, s *Source, seed, next int64, before int) {
	t.Helper()
	s.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < before; i++ {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 #%d = %d, want %d", seed, i, g, w)
		}
	}
	s.Seed(next)
	want.Seed(next)
	for i := 0; i < 2*srcLen; i++ {
		var g, w uint64
		if i%2 == 0 {
			g, w = s.Uint64(), want.Uint64()
		} else {
			g, w = uint64(s.Int63()), uint64(want.Int63())
		}
		if g != w {
			t.Fatalf("seed %d, %d draws, reseeded with %d: output #%d = %d, want %d",
				seed, before, next, i, g, w)
		}
	}
}

// TestSourceReseedMidFill reseeds a Source after every draw count from 0
// through one past the fill (output srcFeed writes the last word), the way
// the fleet replay reseeds its shard generator after streams of a few
// dozen outputs. Each count reseeds across the special seeds in turn and
// once between two random seeds.
func TestSourceReseedMidFill(t *testing.T) {
	s := NewSource(0)
	pick := rand.New(rand.NewSource(23))
	for before := 0; before <= srcFeed+2; before++ {
		for i, seed := range sourceSeeds {
			checkReseed(t, s, seed, sourceSeeds[(i+1+before)%len(sourceSeeds)], before)
		}
		checkReseed(t, s, int64(pick.Uint64()), int64(pick.Uint64()), before)
	}
}

func FuzzSourceReseed(f *testing.F) {
	for i, seed := range sourceSeeds {
		for _, before := range []uint16{0, 1, 40, srcTap, srcFeed - 1, srcFeed, srcFeed + 1, srcLen} {
			f.Add(seed, sourceSeeds[(i+int(before))%len(sourceSeeds)], before)
		}
	}
	s := NewSource(0)
	f.Fuzz(func(t *testing.T, seed, next int64, before uint16) {
		checkReseed(t, s, seed, next, int(before))
	})
}

var seedSink int64

// BenchmarkSourceSeed times a reseed plus the draws that follow it, since
// a Source fills its register as the first draws read it: Seed alone, a
// stream of a median fleet function (40 draws), and a register's worth
// and more (700).
func BenchmarkSourceSeed(b *testing.B) {
	for _, src := range []struct {
		name string
		new  func() rand.Source
	}{
		{"trace.Source", func() rand.Source { return NewSource(0) }},
		{"math/rand", func() rand.Source { return rand.NewSource(0) }},
	} {
		for _, draws := range []int{0, 40, 700} {
			b.Run(fmt.Sprintf("%s/draws_%d", src.name, draws), func(b *testing.B) {
				s := src.new()
				var sum int64
				for i := 0; i < b.N; i++ {
					s.Seed(int64(i))
					for j := 0; j < draws; j++ {
						sum += s.Int63()
					}
				}
				seedSink = sum + s.Int63()
			})
		}
	}
}
