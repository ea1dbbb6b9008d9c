package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank p-quantile of the samples: the smallest
// sample with at least p of the samples at or below it.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
// A tail percentile is reported only with at least ten samples beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the "exclusive"
// method of Python's statistics.quantiles(values, n=4), so spreads read
// the same here as in a Python analysis of the same runs.
func quartiles(samples []float64) (q1, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(samples []float64) float64 {
	q1, q3 := quartiles(samples)
	return (q3 - q1) / math.Abs(median(samples))
}

// Verdicts of -compare for one metric on one workload.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict classifies the change's runs against the parent's for one
// end-to-end metric on one workload. When paired, run i of each side
// was made back to back with the other (same seed, alternating which side
// went first).
//
//   - worse: the change's median is worse than the parent's by more than
//     the bound (a share of the parent's median).
//   - improved: only for paired runs, at least ten pairs: the change wins
//     at least nine tenths of the pairs (ties count for neither) and the
//     medians differ by more than the parent's interquartile range.
//   - unresolved: either side's spread is wider than the bound, unless
//     every run of the change reads better than every run of the parent.
//   - unchanged: otherwise.
func verdict(parent, change []float64, lowerIsBetter bool, bound float64, paired bool) string {
	mp, mc := median(parent), median(change)
	better := func(a, b float64) bool { // a reads better than b
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	worseBy := (mc - mp) / math.Abs(mp)
	if !lowerIsBetter {
		worseBy = -worseBy
	}
	if paired && len(parent) >= 10 && len(change) >= 10 {
		n := min(len(parent), len(change))
		wins := 0
		for i := 0; i < n; i++ {
			if better(change[i], parent[i]) {
				wins++
			}
		}
		q1, q3 := quartiles(parent)
		if 10*wins >= 9*n && math.Abs(mc-mp) > q3-q1 {
			return verdictImproved
		}
	}
	if worseBy > bound {
		return verdictWorse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if !allBetter && (spread(parent) > bound || spread(change) > bound) {
		return verdictUnresolved
	}
	return verdictUnchanged
}
