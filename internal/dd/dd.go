// Package dd implements the generic Delta Debugging program-minimization
// algorithm (Algorithm 1 of the paper, after Zeller's ddmin adapted to
// debloating by Heo et al.).
//
// Given a list of components A and an oracle O, DD finds a 1-minimal subset
// A* such that O(A*) = true: removing any single component from A* makes
// the oracle fail. Finding the true minimum is NP-complete, so 1-minimality
// is the practical target. Components are named by their indices; the
// caller maps an index to whatever it stands for.
package dd

import "encoding/binary"

// Oracle tests whether a candidate subset of components, given as their
// ascending indices, satisfies the target property (for debloating: "the
// program still behaves correctly with only these components present").
// keep is Minimize's own working storage: an oracle must not modify it,
// nor keep it after it returns.
type Oracle func(keep []int) bool

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

// Minimize runs DD over the components 0..count-1 and returns the ascending
// indices of a 1-minimal subset, along with statistics. The oracle must
// accept the full set; if it does not, the full set is returned with
// Stats.Tests == 1 (nothing can be proven removable against a broken
// baseline). opts optionally traces the run over the caller's simulated
// clock.
func Minimize(count int, oracle Oracle, opts Options) ([]int, Stats) {
	var stats Stats
	memo := make(map[string]bool)
	t := newTrace(opts, count)

	// Tests run one at a time, so each reuses the key storage.
	var key []byte
	test := func(keep []int) bool {
		key = appendIndexKey(key[:0], keep)
		if v, ok := memo[string(key)]; ok {
			stats.CacheHits++
			t.cacheHit()
			return v
		}
		stats.Tests++
		v := t.oracleCall(len(keep), func() bool { return oracle(keep) })
		memo[string(key)] = v
		return v
	}

	all := make([]int, count)
	for i := range all {
		all[i] = i
	}

	// Degenerate cases.
	if count == 0 {
		t.finish(0, stats)
		return nil, stats
	}
	if !test(all) {
		t.finish(count, stats)
		return all, stats
	}
	// Fast path: if the empty set passes, everything is removable.
	if test(nil) {
		stats.Reductions++
		t.finish(0, stats)
		return nil, stats
	}

	current := all
	var spare []int // complement storage that current does not use
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
			start := 0
			for _, p := range parts {
				spare = complement(spare[:0], current, start, start+len(p))
				start += len(p)
				if test(spare) {
					current, spare = spare, nil
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

	t.finish(len(current), stats)
	return current, stats
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

// complement appends to dst current without current[lo:hi], the partition
// split made there.
func complement(dst, current []int, lo, hi int) []int {
	dst = append(dst, current[:lo]...)
	return append(dst, current[hi:]...)
}

// appendIndexKey appends the memo key of a subset to dst: its indices as
// uvarints, a prefix-free code, so distinct subsets get distinct keys.
func appendIndexKey(dst []byte, keep []int) []byte {
	for _, i := range keep {
		dst = binary.AppendUvarint(dst, uint64(i))
	}
	return dst
}
