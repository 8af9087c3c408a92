package skyline

import (
	"math/rand"

	"manetskyline/internal/tuple"
)

// This file implements the filter-set selection behind the sampling-based SF
// strategy (and the §7 multi-filter extension, whose core.SelectFilters
// delegates here): pick k tuples from a skyline so that the union volume of
// their dominating regions — the region of the data space where at least one
// chosen tuple prunes — is maximized under the upper bounds hi.
//
// A single max-VDR tuple covers one corner of the data space; tuples far
// from it survive pruning even when other skyline tuples would have removed
// them. The union of overlapping dominating hyper-rectangles has no cheap
// closed form, so marginal coverage is estimated by Monte Carlo sampling
// over the bounding box, seeded for determinism.

// VDR computes Π_k (hi_k - p_k), the volume of the dominating region of t
// against upper bounds hi (§3.2). Negative factors (a tuple above the
// assumed bound, possible under under-estimation) clamp to zero: such a
// tuple has no credited pruning volume. It is the one VDR formula: the
// devices' filter scoring (core.VDRFunc) and filter-set selection both use
// it.
func VDR(t tuple.Tuple, hi []float64) float64 {
	v := 1.0
	for k, p := range t.Attrs {
		f := hi[k] - p
		if f <= 0 {
			return 0
		}
		v *= f
	}
	return v
}

// SelectFilterSet picks up to k filtering tuples from a skyline, maximizing
// the (sampled) union volume of their dominating regions under the upper
// bounds hi. The first pick is always the max-VDR tuple, so k=1 degenerates
// to the paper's single-filter choice. samples controls the Monte Carlo
// precision (0 ⇒ 2048); seed makes the estimate deterministic.
func SelectFilterSet(sky []tuple.Tuple, hi []float64, k, samples int, seed int64) []tuple.Tuple {
	if k <= 0 || len(sky) == 0 {
		return nil
	}
	if k > len(sky) {
		k = len(sky)
	}
	if samples <= 0 {
		samples = 2048
	}
	dim := len(hi)

	// Sample points uniformly in [min attr seen, hi]^dim — the region where
	// candidate dominating regions live.
	lo := make([]float64, dim)
	copy(lo, sky[0].Attrs)
	for _, t := range sky {
		for j, v := range t.Attrs {
			if v < lo[j] {
				lo[j] = v
			}
		}
	}
	r := rand.New(rand.NewSource(seed))
	pts := make([][]float64, samples)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = lo[j] + r.Float64()*(hi[j]-lo[j])
		}
		pts[i] = p
	}

	covered := make([]bool, samples)
	chosen := make([]tuple.Tuple, 0, k)
	used := make([]bool, len(sky))

	// First pick: exact max-VDR for parity with the single-filter scheme
	// (ties keep the earliest tuple, matching core.SelectFilter).
	firstIdx, bestV := 0, 0.0
	for i := range sky {
		if v := VDR(sky[i], hi); i == 0 || v > bestV {
			firstIdx, bestV = i, v
		}
	}
	first := sky[firstIdx].Clone()
	for i := range sky {
		if sky[i].Equal(first) {
			used[i] = true
			break
		}
	}
	chosen = append(chosen, first)
	markCovered(covered, pts, first)

	for len(chosen) < k {
		bestGain := 0
		bestIdx := -1
		for i := range sky {
			if used[i] {
				continue
			}
			gain := 0
			for s, p := range pts {
				if !covered[s] && inDominatingRegion(sky[i], p) {
					gain++
				}
			}
			if gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break // no remaining tuple adds coverage
		}
		used[bestIdx] = true
		chosen = append(chosen, sky[bestIdx].Clone())
		markCovered(covered, pts, sky[bestIdx])
	}
	return chosen
}

func markCovered(covered []bool, pts [][]float64, t tuple.Tuple) {
	for s, p := range pts {
		if !covered[s] && inDominatingRegion(t, p) {
			covered[s] = true
		}
	}
}

// inDominatingRegion reports whether point p lies strictly inside t's
// dominating region (t better on every coordinate).
func inDominatingRegion(t tuple.Tuple, p []float64) bool {
	for j, v := range t.Attrs {
		if v >= p[j] {
			return false
		}
	}
	return true
}
