package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// quantileNs is quantile over integer nanosecond samples.
func quantileNs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return quantile(xs, q)
}

// median is quantile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// spread is the interquartile range of xs as a share of its median (0 when
// the median is 0).
func spread(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	m := quantile(c, 0.5)
	if m == 0 {
		return 0
	}
	return math.Abs(quantile(c, 0.75)-quantile(c, 0.25)) / math.Abs(m)
}

// windowRate is the median over short windows of the operations completed
// per second in each. A neighbour on a shared host that preempts the run
// for a few milliseconds slows the windows it falls in, not the median,
// while a change to the per-operation cost moves every window. The
// overall rate, which counts every stall, is reported beside it as detail.
func windowRate(ops []int64, durs []time.Duration) float64 {
	rates := make([]float64, len(ops))
	for i := range ops {
		rates[i] = float64(ops[i]) / durs[i].Seconds()
	}
	return median(rates)
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += float64(v)
	}
	return s / float64(len(xs))
}
