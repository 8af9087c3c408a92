// Package stats provides the small statistical helpers the benchmark
// harness uses to aggregate per-query metrics.
package stats

import (
	"math"
	"sort"
)

// Median returns the 50th percentile, or 0 for an empty slice.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks; 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Welford accumulates mean and variance in one streaming pass using
// Welford's online algorithm, which stays numerically stable where the
// naive sum-of-squares cancels catastrophically. The zero value is ready to
// use; it needs O(1) space, so aggregating layers (telemetry consumers,
// long sweeps) can fold in samples without retaining them.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 before any sample).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance, or 0 for fewer than two
// samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Merge folds another accumulator into this one (Chan et al.'s parallel
// update), so per-shard accumulators combine exactly.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}
