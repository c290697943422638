package main

import (
	"math"
	"sort"
)

// tailSupport is how many samples must lie beyond a percentile before
// it is reported: the highest percentile a sample supports is the one
// with at least ten observations above it.
const tailSupport = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (p in (0,100]): the
// smallest sample with at least p% of the samples at or below it. It
// returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint median: the mean of the two middle samples
// when the count is even, so a median of durations is not quantised to
// one sample.
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

// supported reports whether n samples support percentile p under the
// ten-samples-beyond rule: at least tailSupport samples lie strictly
// above the nearest-rank position.
func supported(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n-rank >= tailSupport
}

// quartiles returns the first and third quartile of xs by the
// exclusive method Python's statistics.quantiles(xs, n=4) uses, which
// is what the driver applies to a metric's ten per-seed values. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, linearly interpolated and
		// clamped to the sample.
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// worsening is how far b is worse than a as a share of a, for a metric
// whose better direction is lower (higherBetter false) or higher.
// Negative values mean b improved on a.
func worsening(a, b float64, higherBetter bool) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if higherBetter {
		return -d
	}
	return d
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
