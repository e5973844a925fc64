package main

import (
	"math"
	"sort"

	"castan/internal/obs"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, by the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4), so figures printed here agree with a
// spread computed over a set of runs. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4 // may fall outside 0..4: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile range of xs as a share of its median: the
// steadiness figure a set of runs is judged by.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is num/den, or empty when den is 0: a ratio over no attempts has
// no measured value, so each caller states what "nothing attempted"
// means for its ratio.
func ratio(num, den, empty float64) float64 {
	if den == 0 {
		return empty
	}
	return num / den
}

// histQuantile estimates the q-quantile of an obs histogram by linear
// interpolation inside the bucket that holds it. ok is false when fewer
// than minBeyond observations lie beyond the quantile on either side: a
// percentile resting on fewer samples than that is not reported.
func histQuantile(h obs.HistogramValue, q float64, minBeyond uint64) (v float64, ok bool) {
	if h.Count == 0 {
		return 0, false
	}
	below := uint64(math.Floor(q * float64(h.Count)))
	if below < minBeyond || h.Count-below < minBeyond {
		return 0, false
	}
	target := q * float64(h.Count)
	var cum uint64
	lo := 0.0
	for i, c := range h.Counts {
		// The overflow bucket has no upper bound; take it to span one
		// more doubling, as the obs.ExpBuckets bounds do.
		hi := lo * 2
		if i < len(h.Bounds) {
			hi = float64(h.Bounds[i])
		}
		if c > 0 && float64(cum+c) >= target {
			return lo + (hi-lo)*(target-float64(cum))/float64(c), true
		}
		cum += c
		lo = hi
	}
	return lo, true
}
