package trace

import "math"

// Thinning keeps a candidate arrival at phase φ of the period when a
// uniform draw u satisfies
//
//	u < base·(1 + 0.6·sin(φ − π/2)) / maxRate
//
// evaluated in float64 exactly as written, with math.Sin. A thinner
// reaches that decision without math.Sin for all but about 1.4·10⁻⁵ of
// candidates, by a squeeze test against a table.
//
// The table holds math.Sin and math.Cos at the nodes x_k = k·h − π/2,
// h = 2π/1024. For x = φ − π/2 and d = x − x_k with k = ⌊φ/h⌋, the
// linear estimate S_k + C_k·d is within d²/2 ≤ h²/2 ≈ 1.9·10⁻⁵ of sin(x)
// (Taylor remainder). The threshold is monotone non-decreasing in the sine
// under round-to-nearest (each of its four operations is), with slope
// 0.6·base/maxRate ≈ 0.375, so the exact threshold lies within
// squeezeBand of the one computed from the estimate. A draw below the
// estimated threshold minus the band therefore passes the exact
// comparison, and a draw at or above it plus the band fails it. Only a
// draw inside the band, a phase whose index falls outside the table, or a
// rate so small that the threshold's operations leave the normal range
// goes to math.Sin. The decision is always the exact comparison's, so
// every arrival is bit-identical to a math.Sin loop's.

const (
	sinNodes = 1024
	sinStep  = 2 * math.Pi / sinNodes
	// squeezeBand bounds the distance between the exact threshold and the
	// estimated one: the Taylor remainder h²/2 times the slope 0.6/1.6,
	// plus 10⁻¹² for the rounding of math.Sin, math.Cos, d and both
	// thresholds, which together stay below 10⁻¹⁴.
	squeezeBand = 0.6/1.6*sinStep*sinStep/2 + 1e-12
	// minSqueezeRate is the smallest base rate the band covers: above it
	// every intermediate of the threshold is a normal float64, so each
	// operation's rounding error is relative.
	minSqueezeRate = 0x1p-1000
)

// sinTable[k] holds math.Sin and math.Cos at node x_k.
var sinTable = func() (tab [sinNodes]struct{ sin, cos float64 }) {
	for k := range tab {
		x := sinNode(k)
		tab[k].sin, tab[k].cos = math.Sin(x), math.Cos(x)
	}
	return tab
}()

// sinNode is the table node x_k = k·h − π/2.
func sinNode(k int) float64 { return float64(k)*sinStep - math.Pi/2 }

// thinner decides thinning for one stream's base and peak rate.
type thinner struct {
	base, maxRate float64
	// c0 and c1 are the threshold's intercept base/maxRate and slope
	// 0.6·base/maxRate; squeeze is false when the band does not cover
	// this rate.
	c0, c1  float64
	squeeze bool
}

func newThinner(base, maxRate float64) thinner {
	c0 := base / maxRate
	return thinner{base: base, maxRate: maxRate, c0: c0, c1: 0.6 * c0, squeeze: base >= minSqueezeRate}
}

// keep reports whether the candidate at phase with draw u survives:
// exactly u < base·(1+0.6·math.Sin(phase−π/2))/maxRate.
func (th *thinner) keep(phase, u float64) bool {
	if k := int(phase * (1 / sinStep)); uint(k) < sinNodes && th.squeeze {
		n := &sinTable[k]
		thr := th.c0 + th.c1*(n.sin+n.cos*(phase-math.Pi/2-sinNode(k)))
		if u < thr-squeezeBand {
			return true
		}
		if u >= thr+squeezeBand {
			return false
		}
	}
	return u < th.base*(1+0.6*math.Sin(phase-math.Pi/2))/th.maxRate
}
