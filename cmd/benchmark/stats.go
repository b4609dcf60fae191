package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of ascending xs by linear interpolation
// between order statistics (q = 0.5 is the median); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// spread is the interquartile range of xs as a share of their median —
// the run-to-run noise measure -check compares against a metric's bound.
// Fewer than four values have no quartiles; their spread is reported as
// 0, and -check calls such a row unresolved.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := sorted(xs)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((quantile(s, 0.75) - quantile(s, 0.25)) / med)
}

// ratio is a/b, 0 when b is 0 — every per-command and per-tick metric
// divides by a count that a failed run can leave at zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
