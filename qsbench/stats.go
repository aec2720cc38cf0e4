package main

import "sort"

// Percentiles are named in permille so rank arithmetic is exact integer
// arithmetic: 0.999*n in floating point can round past an integer.

// rankOf is the 1-based nearest rank of the q-permille percentile of n
// samples: ceil(q*n/1000).
func rankOf(n, q int) int { return (q*n + 999) / 1000 }

// beyond returns how many of n sorted samples lie above the nearest-rank
// q-permille percentile.
func beyond(n, q int) int { return n - rankOf(n, q) }

// pickRank chooses the sample to report when the q-permille percentile of
// n sorted samples is asked for: the highest percentile no higher than q
// with at least ten samples beyond it, that is the rank of q or n-10,
// whichever is lower. The choice moves smoothly with n, so a run that
// gathers a few samples fewer reports a slightly lower percentile rather
// than jumping to a far lower one. Below twenty samples not even the median
// has ten beyond it; the median is still what is reported, and supported is
// false.
func pickRank(n, q int) (rank int, supported bool) {
	rank = rankOf(n, q)
	if rank > n-10 {
		rank = n - 10
	}
	if med := rankOf(n, 500); rank < med {
		return med, false
	}
	return rank, true
}

// percentile returns the nearest-rank q-permille percentile of sorted.
func percentile(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (q*len(sorted) + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// dist is a sorted sample of durations in nanoseconds.
type dist []int64

func newDist(xs []int64) dist {
	d := append(dist(nil), xs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// at reports the sample pickRank chooses for q, and which percentile (in
// percent) it is.
func (d dist) at(q int) (v int64, usedPct float64, supported bool) {
	rank, supported := pickRank(len(d), q)
	if rank < 1 {
		return 0, 0, false
	}
	return d[rank-1], 100 * float64(rank) / float64(len(d)), supported
}

func (d dist) sum() int64 {
	var s int64
	for _, x := range d {
		s += x
	}
	return s
}

// medianF is the median of a small float sample (set-up times).
func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func concat(xs [][]int64) []int64 {
	var out []int64
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}
