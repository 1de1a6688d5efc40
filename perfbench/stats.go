package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 { return stats.Summarize(xs).P50 }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, as stats.Summarize does, or 0 for no samples.
// It serves the tail ladder, whose rungs Summary does not all expose.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, with that percentile. With fewer than twenty
// samples no percentile above the median qualifies, and the median is
// returned as the tail.
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if math.Floor(n*(1-p/100)) >= 10 {
			return percentile(xs, p), p
		}
	}
	return median(xs), 50
}
