package monitor

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// addSample folds one sample into a bucket on its own: it computes the
// pro-rata split for that bucket and skips the dollar terms of a sample
// with no duration bill. It is the reference PhaseOf must match.
func addSample(p *Phase, s *Sample) {
	p.Invocations++
	if s.Cold {
		p.ColdStarts++
	}
	if s.Class != "ok" {
		p.Errors++
	}
	idle := s.Billed - s.BilledInit - s.BilledExec
	if idle < 0 {
		idle = 0
	}
	p.BilledInit += s.BilledInit
	p.BilledExec += s.BilledExec
	p.BilledIdle += idle
	durUSD := s.CostUSD - s.RestoreFeeUSD
	if durUSD < 0 {
		durUSD = 0
	}
	if s.Billed > 0 && durUSD > 0 {
		init := durUSD * float64(s.BilledInit) / float64(s.Billed)
		exec := durUSD * float64(s.BilledExec) / float64(s.Billed)
		p.InitUSD += init
		p.ExecUSD += exec
		p.IdleUSD += durUSD - init - exec
	}
	p.RestoreUSD += s.RestoreFeeUSD
}

// samePhase fails unless a and b agree field for field, the dollar sums
// bit for bit.
func samePhase(t *testing.T, what string, a, b Phase) {
	t.Helper()
	if a.Invocations != b.Invocations || a.ColdStarts != b.ColdStarts || a.Errors != b.Errors ||
		a.BilledInit != b.BilledInit || a.BilledExec != b.BilledExec || a.BilledIdle != b.BilledIdle {
		t.Fatalf("%s: counts differ: %+v vs %+v", what, a, b)
	}
	for _, f := range []struct {
		name string
		x, y float64
	}{
		{"InitUSD", a.InitUSD, b.InitUSD}, {"ExecUSD", a.ExecUSD, b.ExecUSD},
		{"IdleUSD", a.IdleUSD, b.IdleUSD}, {"RestoreUSD", a.RestoreUSD, b.RestoreUSD},
	} {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			t.Fatalf("%s: %s = %v (%#x), want %v (%#x)", what, f.name,
				f.x, math.Float64bits(f.x), f.y, math.Float64bits(f.y))
		}
	}
}

// TestPhaseOfMatchesAdd feeds random samples to three rows the way the
// fleet does, each row adding one shared PhaseOf, and to three reference
// buckets that fold each sample separately. The samples include a zero
// Billed, a zero cost, a zero BilledInit, a restore fee larger than the
// cost, and phases whose rounding exceeds the billed window, so idle would
// be negative. Every bucket must match bit for bit, and the split must
// equal the expression CostUSD·BilledInit/Billed (and its handler twin)
// that defines the cost.usd{phase} series when no restore fee is billed.
func TestPhaseOfMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var rows, want [3]Phase
	series := 0
	for i := 0; i < 20000; i++ {
		billed := time.Duration(rng.Intn(3000)) * time.Millisecond
		s := Sample{
			Cold:       rng.Intn(3) == 0,
			Class:      []string{"ok", "ok", "ok", "timeout"}[rng.Intn(4)],
			BilledInit: time.Duration(rng.Int63n(int64(billed) + 1)),
			Billed:     billed,
			CostUSD:    rng.Float64() * 1e-5,
		}
		s.BilledExec = time.Duration(rng.Int63n(int64(billed-s.BilledInit) + 1))
		switch rng.Intn(8) {
		case 0:
			s.Billed = 0
		case 1:
			s.CostUSD = 0
		case 2:
			s.BilledInit = 0
		case 3:
			s.BilledExec += time.Duration(1 + rng.Intn(5)) // idle below zero
		case 4:
			s.RestoreFeeUSD = rng.Float64() * 2e-5
		}
		c := PhaseOf(&s)
		for r := range rows {
			if rng.Intn(4) > 0 {
				rows[r].merge(&c)
				addSample(&want[r], &s)
			}
		}
		if s.RestoreFeeUSD == 0 && s.Billed > 0 && s.CostUSD > 0 {
			series++
			if s.BilledInit > 0 {
				if old := s.CostUSD * float64(s.BilledInit) / float64(s.Billed); math.Float64bits(c.InitUSD) != math.Float64bits(old) {
					t.Fatalf("sample %d: init split %v, the cost.usd{phase=\"init\"} expression gives %v", i, c.InitUSD, old)
				}
			}
			if s.BilledExec > 0 {
				if old := s.CostUSD * float64(s.BilledExec) / float64(s.Billed); math.Float64bits(c.ExecUSD) != math.Float64bits(old) {
					t.Fatalf("sample %d: handler split %v, the cost.usd{phase=\"handler\"} expression gives %v", i, c.ExecUSD, old)
				}
			}
		}
	}
	for r := range rows {
		samePhase(t, "row "+string(rune('a'+r)), rows[r], want[r])
	}
	if series < 5000 {
		t.Fatalf("only %d samples fed the phase series", series)
	}

	// Ledger.Record goes through the same split.
	l := NewLedger()
	var ref Phase
	for i := 0; i < 500; i++ {
		s := Sample{Function: "f", Class: "ok", BilledInit: 300 * time.Millisecond,
			BilledExec: time.Duration(i) * time.Millisecond, Billed: time.Second,
			CostUSD: float64(i) * 1e-8, RestoreFeeUSD: float64(i%3) * 1e-9}
		l.Record(s)
		addSample(&ref, &s)
	}
	samePhase(t, "Ledger.Record", l.Function("f"), ref)
}
