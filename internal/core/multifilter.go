package core

import (
	"math"
	"math/rand"
	"slices"

	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

// This file implements the paper's first future-work direction (§7):
// "generalize the filtering idea, using more than one filtering tuple.
// Important questions include how many, and which, tuples should be used as
// filters, to achieve the best data reduction rate."
//
// The greedy volume-of-dominated-region selection itself lives in
// internal/skyline (SelectFilterSet), where both this multi-filter extension
// and the sampling-based SF strategy draw from it. The SF-specific
// primitives — seeded deterministic tuple sampling and survivor computation
// against a received filter set — live here, on the local-skyline path every
// runtime (simulator and live TCP peers) shares.

// SelectFilters picks up to k filtering tuples from a local skyline,
// maximizing the (sampled) union volume of their dominating regions under
// the upper bounds hi. The first pick is always the max-VDR tuple, so k=1
// degenerates to SelectFilter. samples controls the Monte Carlo precision
// (0 ⇒ 2048); seed makes the estimate deterministic.
func SelectFilters(sky []tuple.Tuple, hi []float64, k, samples int, seed int64) []tuple.Tuple {
	return skyline.SelectFilterSet(sky, hi, k, samples, seed)
}

// ApplyFilters prunes a reduced local skyline with a set of filtering
// tuples: a tuple is dropped when any filter strictly dominates it. The
// same safety argument as for a single filter applies — every filter is a
// real in-range site, so anything it dominates cannot be in the final
// skyline.
func ApplyFilters(sky []tuple.Tuple, filters []tuple.Tuple) []tuple.Tuple {
	if len(filters) == 0 {
		return sky
	}
	out := sky[:0]
next:
	for _, t := range sky {
		for _, f := range filters {
			if f.Dominates(t) {
				continue next
			}
		}
		out = append(out, t)
	}
	return out
}

// SampleSeed derives the deterministic per-device sampling seed of the SF
// strategy: every runtime (simulator, live peers) must draw the same sample
// for the same (query, device) pair so traces and results are reproducible.
func SampleSeed(key QueryKey, id DeviceID) int64 {
	return int64(key.Org)<<24 ^ int64(key.Cnt)<<16 ^ int64(id) ^ 0x5f3a
}

// SampleTuples draws a seeded deterministic sample of up to k tuples from a
// local skyline — the tuples a device volunteers during the SF strategy's
// sampling round. The sample preserves skyline order (it is a subsequence),
// so byte-identical traces follow from the seed alone. k >= len(sky)
// returns sky itself.
func SampleTuples(sky []tuple.Tuple, k int, seed int64) []tuple.Tuple {
	if k <= 0 {
		return nil
	}
	if k >= len(sky) {
		return sky
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(sky))[:k]
	slices.Sort(idx)
	out := make([]tuple.Tuple, 0, k)
	for _, i := range idx {
		out = append(out, sky[i])
	}
	return out
}

// QuantizeFilters maps each filter's attributes onto a 16-bit fixed-point
// grid over the schema's global bounds, rounding UP (toward worse, in the
// smaller-is-better convention). The SF filter flood ships only the 2-byte
// codes — a fraction of a float64 per attribute — and because the decoded
// vector is coordinate-wise no better than the original tuple, anything the
// quantized filter dominates is also dominated by the real tuple: pruning
// stays conservative and the exactness argument survives quantization
// unchanged. Positions are preserved in the returned tuples but never ship
// (filters prune by dominance alone). A value outside the schema bounds is
// kept verbatim rather than clamped, so conservativeness never breaks.
func QuantizeFilters(filters []tuple.Tuple, schema tuple.Schema) []tuple.Tuple {
	const levels = 1 << 16
	out := make([]tuple.Tuple, 0, len(filters))
	for _, f := range filters {
		q := f.Clone()
		for i, v := range q.Attrs {
			if i >= len(schema.Min) || i >= len(schema.Max) {
				continue
			}
			lo, hi := schema.Min[i], schema.Max[i]
			span := hi - lo
			if span <= 0 || v < lo || v > hi {
				continue
			}
			code := math.Ceil((v - lo) / span * (levels - 1))
			vq := lo + code/(levels-1)*span
			for vq < v && code < levels-1 { // float round-off guard
				code++
				vq = lo + code/(levels-1)*span
			}
			if vq >= v {
				q.Attrs[i] = vq
			}
		}
		out = append(out, q)
	}
	return out
}

// Survivors computes the tuples a device returns in the SF strategy's
// collect phase: its full constrained local skyline pruned by the broadcast
// filter set. Every filter is a real in-range tuple the originator
// collected, so anything a filter dominates cannot be in the final skyline —
// the same safety argument as the single-filter scheme. Tuples the device
// already volunteered in the sampling round are deliberately re-included
// when they survive: the sample message may have been lost, and the
// originator's Merge deduplicates by site, so re-sending costs a few tuples
// while subtracting would silently lose them under loss. Unlike
// ApplyFilters, the input is left intact.
func Survivors(sky, filters []tuple.Tuple) []tuple.Tuple {
	return ApplyFilters(slices.Clone(sky), filters)
}
