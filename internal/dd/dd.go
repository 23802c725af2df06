// Package dd implements the generic Delta Debugging program-minimization
// algorithm (Algorithm 1 of the paper, after Zeller's ddmin adapted to
// debloating by Heo et al.).
//
// Given a list of components A and an oracle O, DD finds a 1-minimal subset
// A* such that O(A*) = true: removing any single component from A* makes
// the oracle fail. Finding the true minimum is NP-complete, so 1-minimality
// is the practical target.
package dd

import (
	"strconv"
	"strings"
)

// Oracle tests whether a candidate subset of components satisfies the
// target property (for debloating: "the program still behaves correctly
// with only these components present").
type Oracle[T any] func(keep []T) bool

// Stats reports the work performed by one minimization.
type Stats struct {
	// Tests is the number of oracle invocations actually executed.
	Tests int
	// CacheHits counts oracle invocations answered from the memo table
	// (the paper's Figure 6 walkthrough notes that repeated subsets need
	// not be re-tested).
	CacheHits int
	// Reductions counts accepted reductions of the candidate set.
	Reductions int
	// MaxGranularity is the largest partition count n reached.
	MaxGranularity int
}

// Minimize runs DD over items and returns a 1-minimal subset, along with
// statistics. The oracle must accept the full set; if it does not, the full
// set is returned unchanged with Stats.Tests == 1 (nothing can be proven
// removable against a broken baseline). opts optionally traces the run
// over the caller's simulated clock.
//
// Indices into the original item list are used internally so memoization
// keys are stable and the returned subset preserves original order.
func Minimize[T any](items []T, oracle Oracle[T], opts Options) ([]T, Stats) {
	var stats Stats
	memo := make(map[string]bool)
	t := newTrace(opts, len(items))

	test := func(keep []int) bool {
		key := indexKey(keep)
		if v, ok := memo[key]; ok {
			stats.CacheHits++
			t.cacheHit()
			return v
		}
		subset := make([]T, len(keep))
		for i, idx := range keep {
			subset[i] = items[idx]
		}
		stats.Tests++
		v := t.oracleCall(len(keep), func() bool { return oracle(subset) })
		memo[key] = v
		return v
	}

	all := make([]int, len(items))
	for i := range all {
		all[i] = i
	}

	// Degenerate cases.
	if len(items) == 0 {
		t.finish(0, stats)
		return nil, stats
	}
	if !test(all) {
		t.finish(len(items), stats)
		return items, stats
	}
	// Fast path: if the empty set passes, everything is removable.
	if test(nil) {
		stats.Reductions++
		t.finish(0, stats)
		return nil, stats
	}

	current := all
	n := 2
	round := 0
	for {
		if n > len(current) {
			n = len(current)
		}
		if stats.MaxGranularity < n {
			stats.MaxGranularity = n
		}
		round++
		rs := t.startRound(round, n, len(current))
		parts := split(current, n)

		// Step 1: does some partition alone satisfy the oracle?
		reduced := false
		for _, p := range parts {
			if test(p) {
				current = p
				n = 2
				reduced = true
				stats.Reductions++
				break
			}
		}

		// Step 2: does some complement satisfy the oracle?
		if !reduced && n > 1 {
			for i := range parts {
				comp := complement(current, parts[i])
				if test(comp) {
					current = comp
					n = n - 1
					if n < 2 {
						n = 2
					}
					reduced = true
					stats.Reductions++
					break
				}
			}
		}
		t.endRound(rs, reduced, len(current))

		// Step 3: refine granularity or stop.
		if !reduced {
			if n >= len(current) {
				break
			}
			n = 2 * n
			if n > len(current) {
				n = len(current)
			}
		}
		if len(current) <= 1 {
			// A single remaining component: it is needed (empty set was
			// tested above or will be covered by partition tests).
			if len(current) == 1 && test(nil) {
				current = nil
				stats.Reductions++
			}
			break
		}
	}

	out := make([]T, len(current))
	for i, idx := range current {
		out[i] = items[idx]
	}
	t.finish(len(out), stats)
	return out, stats
}

// split divides idxs into n contiguous, near-equal partitions.
func split(idxs []int, n int) [][]int {
	if n <= 0 {
		n = 1
	}
	parts := make([][]int, 0, n)
	size := len(idxs) / n
	rem := len(idxs) % n
	start := 0
	for i := 0; i < n; i++ {
		end := start + size
		if i < rem {
			end++
		}
		if end > start {
			parts = append(parts, idxs[start:end])
		}
		start = end
	}
	return parts
}

// complement returns current minus part (both sorted index slices).
func complement(current, part []int) []int {
	inPart := make(map[int]bool, len(part))
	for _, i := range part {
		inPart[i] = true
	}
	out := make([]int, 0, len(current)-len(part))
	for _, i := range current {
		if !inPart[i] {
			out = append(out, i)
		}
	}
	return out
}

func indexKey(keep []int) string {
	var sb strings.Builder
	for _, i := range keep {
		sb.WriteString(strconv.Itoa(i))
		sb.WriteByte(',')
	}
	return sb.String()
}
