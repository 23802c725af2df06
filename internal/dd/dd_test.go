package dd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// subsetOracle builds an oracle that passes iff all of `needed` are present
// in the candidate.
func subsetOracle(needed []int) Oracle {
	return func(keep []int) bool {
		have := make(map[int]bool, len(keep))
		for _, k := range keep {
			have[k] = true
		}
		for _, n := range needed {
			if !have[n] {
				return false
			}
		}
		return true
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// minimizeItems runs Minimize over items: the oracle sees, and the result
// holds, the items that Minimize's indices stand for.
func minimizeItems[T any](items []T, oracle func(keep []T) bool) []T {
	var subset []T
	keep, _ := Minimize(len(items), func(keep []int) bool {
		subset = subset[:0]
		for _, i := range keep {
			subset = append(subset, items[i])
		}
		return oracle(subset)
	}, Options{})
	out := make([]T, len(keep))
	for i, k := range keep {
		out[i] = items[k]
	}
	return out
}

func TestMinimizeFindsExactNeededSet(t *testing.T) {
	cases := [][]int{
		{},           // everything removable
		{0},          // first
		{9},          // last
		{3, 4, 5},    // contiguous cluster
		{0, 5, 9},    // scattered
		seq(10),      // nothing removable
		{2, 3, 7, 8}, // two clusters
	}
	for _, needed := range cases {
		min, stats := Minimize(10, subsetOracle(needed), Options{})
		if len(min) != len(needed) {
			t.Errorf("needed %v: got %v (stats %+v)", needed, min, stats)
			continue
		}
		have := map[int]bool{}
		for _, m := range min {
			have[m] = true
		}
		for _, n := range needed {
			if !have[n] {
				t.Errorf("needed %v: result %v missing %d", needed, min, n)
			}
		}
	}
}

func TestMinimizeEmptyInput(t *testing.T) {
	min, stats := Minimize(0, func(keep []int) bool { return true }, Options{})
	if len(min) != 0 || stats.Tests != 0 {
		t.Errorf("min=%v stats=%+v", min, stats)
	}
}

func TestMinimizeBrokenBaseline(t *testing.T) {
	// If even the full set fails, DD returns it unchanged.
	min, stats := Minimize(6, func(keep []int) bool { return false }, Options{})
	if len(min) != 6 {
		t.Errorf("broken baseline should return full set, got %v", min)
	}
	if stats.Tests != 1 {
		t.Errorf("tests = %d, want 1", stats.Tests)
	}
}

func TestMinimizeSingleItem(t *testing.T) {
	if min := minimizeItems([]int{7}, subsetOracle([]int{7})); len(min) != 1 || min[0] != 7 {
		t.Errorf("needed single item removed: %v", min)
	}
	if min := minimizeItems([]int{7}, subsetOracle(nil)); len(min) != 0 {
		t.Errorf("removable single item kept: %v", min)
	}
}

func TestMinimizePreservesOrder(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	min := minimizeItems(items, func(keep []string) bool {
		have := map[string]bool{}
		for _, k := range keep {
			have[k] = true
		}
		return have["b"] && have["d"]
	})
	if len(min) != 2 || min[0] != "b" || min[1] != "d" {
		t.Errorf("min = %v, want [b d]", min)
	}
}

func TestMinimizeMemoization(t *testing.T) {
	calls := 0
	oracle := func(keep []int) bool {
		calls++
		return subsetOracle([]int{1, 6})(keep)
	}
	_, stats := Minimize(8, oracle, Options{})
	if stats.Tests != calls {
		t.Errorf("stats.Tests=%d but oracle called %d times", stats.Tests, calls)
	}
}

// Property: for any monotone oracle defined by a needed subset, Minimize
// returns exactly that subset — 1-minimality coincides with global
// minimality for monotone properties.
func TestQuickMinimizeMonotone(t *testing.T) {
	f := func(nRaw uint8, mask uint16) bool {
		n := int(nRaw%40) + 1
		var needed []int
		for i := 0; i < n && i < 16; i++ {
			if mask&(1<<uint(i)) != 0 {
				needed = append(needed, i)
			}
		}
		min, _ := Minimize(n, subsetOracle(needed), Options{})
		if len(min) != len(needed) {
			return false
		}
		have := map[int]bool{}
		for _, m := range min {
			have[m] = true
		}
		for _, nd := range needed {
			if !have[nd] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the result always satisfies the oracle, and is 1-minimal —
// removing any single element breaks it — even for non-monotone oracles.
func TestQuickMinimizeOneMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(24) + 1
		// Random "pair dependency" oracle: needs set A, and element x only
		// if element y is present (non-monotone-ish but still satisfiable
		// by the full set).
		needed := map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				needed[i] = true
			}
		}
		oracle := func(keep []int) bool {
			have := map[int]bool{}
			for _, k := range keep {
				have[k] = true
			}
			for nd := range needed {
				if !have[nd] {
					return false
				}
			}
			return true
		}
		min, _ := Minimize(n, oracle, Options{})
		if !oracle(min) {
			t.Fatalf("trial %d: result %v fails oracle", trial, min)
		}
		// 1-minimality.
		for drop := range min {
			reduced := make([]int, 0, len(min)-1)
			reduced = append(reduced, min[:drop]...)
			reduced = append(reduced, min[drop+1:]...)
			if oracle(reduced) {
				t.Fatalf("trial %d: result %v not 1-minimal (can drop %d)", trial, min, min[drop])
			}
		}
	}
}

func TestSplitPartitions(t *testing.T) {
	idxs := seq(10)
	for n := 1; n <= 10; n++ {
		parts := split(idxs, n)
		total := 0
		for _, p := range parts {
			if len(p) == 0 {
				t.Errorf("n=%d: empty partition", n)
			}
			total += len(p)
		}
		if total != 10 {
			t.Errorf("n=%d: partitions cover %d items", n, total)
		}
	}
}

func TestComplement(t *testing.T) {
	cur := []int{1, 3, 5, 7}
	comp := complement(nil, cur, 1, 3)
	if len(comp) != 2 || comp[0] != 1 || comp[1] != 7 {
		t.Errorf("complement = %v", comp)
	}
}

// TestIndexKeyDistinct checks that every subset of a few indices, some of
// them multi-byte uvarints, gets its own memo key.
func TestIndexKeyDistinct(t *testing.T) {
	vals := []int{0, 1, 3, 127, 128, 255, 16384}
	seen := make(map[string]int)
	for mask := 0; mask < 1<<len(vals); mask++ {
		var keep []int
		for i, v := range vals {
			if mask&(1<<i) != 0 {
				keep = append(keep, v)
			}
		}
		key := string(appendIndexKey(nil, keep))
		if prev, ok := seen[key]; ok {
			t.Fatalf("subsets %b and %b share a memo key", prev, mask)
		}
		seen[key] = mask
	}
}

// TestMinimizeStatsReasonable bounds the oracle-call count: ddmin on a
// monotone oracle over n items with k needed should stay well under the
// quadratic worst case.
func TestMinimizeStatsReasonable(t *testing.T) {
	_, stats := Minimize(200, subsetOracle([]int{10, 100, 190}), Options{})
	if stats.Tests > 600 {
		t.Errorf("ddmin used %d tests for n=200, k=3 — too many", stats.Tests)
	}
	if stats.Reductions == 0 {
		t.Error("no reductions recorded")
	}
}

func BenchmarkMinimizeSequential(b *testing.B) {
	needed := []int{10, 70, 71, 140}
	for i := 0; i < b.N; i++ {
		Minimize(150, subsetOracle(needed), Options{})
	}
}
