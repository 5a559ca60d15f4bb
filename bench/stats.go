package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it. xs is not modified. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// samplesFor is the smallest sample count at which the p-th percentile
// still has at least ten samples beyond it — the rule under which a
// tail percentile may be reported at all.
func samplesFor(p float64) int {
	if p <= 50 {
		return 1
	}
	return int(math.Ceil(10 / (1 - p/100)))
}

// median returns the middle of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// undisturbedPercentile is where, among a run's windows ranked from
// worst to best, the reported value is taken; see undisturbed.
const undisturbedPercentile = 90

// undisturbed is how per-window values become one reported number: the
// nearest-rank value nine tenths of the way from the worst window to the
// best — the 90th percentile of a metric where higher is better, the
// 10th where lower is.
//
// A shared host disturbs a run in one direction only: while a neighbour
// holds the core, every window is slower, by up to half, for seconds at
// a time, and how much of a run that covers changes from minute to
// minute. The median over windows follows that share, so it says more
// about the neighbours than about the program; the windows near the
// good end are the ones the program had the core to itself, and they
// repeat. The decile rather than the single best window, so that one
// lucky window decides nothing.
func undisturbed(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return percentile(xs, undisturbedPercentile)
	}
	return percentile(xs, 100-undisturbedPercentile)
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// because that is what the accepting driver computes spreads with.
// Fewer than two values yield the value itself twice.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
