package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestExemplarAdmits checks the pre-check serve runs before building an
// exemplar: whenever it turns a candidate away, offering that candidate
// must leave all three sets unchanged. The streams draw E2E, cost and
// sampling key from small ranges, so every set meets ties on its primary
// key, which the pre-check must send to offer.
func TestExemplarAdmits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	skipped, tiesKept := 0, 0
	for stream := 0; stream < 50; stream++ {
		x := newExemplars(topK, 1)
		for i := 0; i < 2000; i++ {
			e := Exemplar{
				Function: fmt.Sprintf("fn-%d", rng.Intn(4)),
				At:       time.Duration(rng.Intn(100)) * time.Second,
				E2E:      time.Duration(rng.Intn(20)) * time.Millisecond,
				CostUSD:  float64(rng.Intn(15)) * 1e-9,
				seq:      uint64(i),
				key:      uint64(rng.Intn(25)),
			}
			before := [3][]Exemplar{x.slowest.sorted(), x.priciest.sorted(), x.sampled.sorted()}
			admits := x.admits(e.E2E, e.CostUSD, e.key)
			x.offer(&e)
			after := [3][]Exemplar{x.slowest.sorted(), x.priciest.sorted(), x.sampled.sorted()}
			changed := false
			for s := range before {
				changed = changed || !slices.Equal(before[s], after[s])
			}
			if !admits {
				skipped++
				if changed {
					t.Fatalf("stream %d candidate %d: the pre-check skipped %+v, but offer kept it", stream, i, e)
				}
			} else if changed && len(before[0]) == topK &&
				(e.E2E == before[0][topK-1].E2E || e.CostUSD == before[1][topK-1].CostUSD || e.key == before[2][topK-1].key) {
				tiesKept++
			}
		}
	}
	t.Logf("%d candidates skipped, %d kept on a tie with a set's worst", skipped, tiesKept)
	if skipped < 50000 || tiesKept < 100 {
		t.Fatalf("%d skipped and %d kept on ties: the streams do not exercise the pre-check", skipped, tiesKept)
	}
}
