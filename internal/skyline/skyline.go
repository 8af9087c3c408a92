// Package skyline implements the centralized skyline algorithms from the
// literature the paper builds on: Block-Nested-Loop (BNL) and
// Divide-and-Conquer from Börzsönyi et al. (ICDE 2001), Sort-Filter-Skyline
// (SFS) from Chomicki et al. (ICDE 2003), and an O(n log n) sort-based
// special case for two dimensions.
//
// These serve three roles in the reproduction: BNL over flat storage is the
// paper's baseline for the local-processing experiments (Figure 5); SFS is
// the template for the hybrid-storage local algorithm of Figure 4; and any
// of them provides the ground truth that the distributed protocol is
// property-tested against (distributed result = centralized constrained
// skyline).
package skyline

import (
	"cmp"
	"slices"
	"sort"

	"manetskyline/internal/tuple"
)

// BNL computes the skyline with the block-nested-loop algorithm: every tuple
// is compared against a window of current skyline candidates. Incomparable
// tuples accumulate in the window; dominated tuples are discarded; window
// tuples dominated by an incoming tuple are evicted. With an unbounded
// window (memory is not the constraint in this reproduction) a single pass
// suffices and the window is exactly the skyline.
func BNL(ts []tuple.Tuple) []tuple.Tuple {
	var window []tuple.Tuple
next:
	for _, cand := range ts {
		for _, w := range window {
			if w.Dominates(cand) {
				continue next
			}
		}
		keep := window[:0]
		for _, w := range window {
			if !cand.Dominates(w) {
				keep = append(keep, w)
			}
		}
		window = append(keep, cand)
	}
	return window
}

// SFS computes the skyline with the sort-filter-skyline algorithm: tuples
// are first sorted by a monotone scoring function (here the attribute sum,
// the entropy-like score Chomicki et al. suggest), which guarantees that no
// tuple can dominate a tuple appearing earlier in the order. One scan then
// compares each tuple only against already-accepted skyline tuples, and
// accepted tuples are never evicted.
//
// Rounding can tie a dominator's sum with its victim's ({1e16, 1} and
// {1e16, 0} both sum to 1e16), though never reverse them, so equal sums are
// ordered lexicographically by attributes, where a dominator always comes
// first.
func SFS(ts []tuple.Tuple) []tuple.Tuple {
	sorted := slices.Clone(ts)
	slices.SortStableFunc(sorted, func(a, b tuple.Tuple) int {
		if c := cmp.Compare(attrSum(a), attrSum(b)); c != 0 {
			return c
		}
		return slices.Compare(a.Attrs, b.Attrs)
	})
	var sky []tuple.Tuple
next:
	for _, cand := range sorted {
		for _, s := range sky {
			if s.Dominates(cand) {
				continue next
			}
			// Equal attribute vectors at different sites are both skyline
			// members; Dominates already returns false for them.
		}
		sky = append(sky, cand)
	}
	return sky
}

func attrSum(t tuple.Tuple) float64 {
	s := 0.0
	for _, v := range t.Attrs {
		s += v
	}
	return s
}

// DivideAndConquer computes the skyline with the D&C scheme of Börzsönyi et
// al.: split the input by the median of the first attribute, recurse, and
// merge by removing from the worse half everything dominated by the better
// half's skyline.
func DivideAndConquer(ts []tuple.Tuple) []tuple.Tuple {
	in := make([]tuple.Tuple, len(ts))
	copy(in, ts)
	return dac(in)
}

func dac(ts []tuple.Tuple) []tuple.Tuple {
	if len(ts) <= 32 {
		return BNL(ts)
	}
	// Partition around the median first-attribute value.
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].Attrs[0] < ts[j].Attrs[0] })
	mid := len(ts) / 2
	// Avoid splitting a run of equal values across both halves in a way that
	// makes no progress: nudge the split point to the end of the run.
	for mid < len(ts) && ts[mid].Attrs[0] == ts[mid-1].Attrs[0] {
		mid++
	}
	if mid == len(ts) {
		return BNL(ts)
	}
	low := dac(ts[:mid])  // better (smaller) on attribute 0
	high := dac(ts[mid:]) // worse on attribute 0
	// The run-aware split makes every high tuple strictly worse on
	// attribute 0 than every low tuple, so no high tuple can dominate a low
	// tuple; the merge only removes high tuples dominated by low's skyline.
	merged := low
nextHigh:
	for _, h := range high {
		for _, l := range low {
			if l.Dominates(h) {
				continue nextHigh
			}
		}
		merged = append(merged, h)
	}
	return merged
}

// Sort2D computes the skyline of strictly two-dimensional tuples in
// O(n log n): sort by (p1, p2) and sweep, keeping tuples whose p2 improves
// on the best seen so far. Tuples that tie the current best vector on both
// attributes are retained (distinct sites with equal attributes are mutually
// non-dominating). Panics if any tuple is not 2-D.
func Sort2D(ts []tuple.Tuple) []tuple.Tuple {
	sorted := make([]tuple.Tuple, len(ts))
	copy(sorted, ts)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Attrs[0] != b.Attrs[0] {
			return a.Attrs[0] < b.Attrs[0]
		}
		return a.Attrs[1] < b.Attrs[1]
	})
	var sky []tuple.Tuple
	for _, cand := range sorted {
		if cand.Dim() != 2 {
			panic("skyline: Sort2D requires 2-D tuples")
		}
		n := len(sky)
		if n == 0 {
			sky = append(sky, cand)
			continue
		}
		last := sky[n-1]
		switch {
		case cand.Attrs[1] < last.Attrs[1]:
			// Strict improvement in p2; p1 is ≥ previous. If p1 ties the
			// previous tuple the previous tuple is now dominated — but that
			// cannot happen: with equal p1 the sort put the smaller p2
			// first, so cand.p2 ≥ last.p2 within a p1-run. Hence p1 here is
			// strictly larger and both survive.
			sky = append(sky, cand)
		case cand.Attrs[0] == last.Attrs[0] && cand.Attrs[1] == last.Attrs[1]:
			// Equal vector: a distinct site with identical attributes.
			sky = append(sky, cand)
		}
	}
	return sky
}

// Constrained computes the skyline of the tuples within distance d of pos —
// the centralized semantics of the paper's distributed query Q_ds, and the
// ground truth for every distributed test.
func Constrained(ts []tuple.Tuple, pos tuple.Point, d float64) []tuple.Tuple {
	var in []tuple.Tuple
	for _, t := range ts {
		if pos.WithinDist(t.Pos(), d) {
			in = append(in, t)
		}
	}
	return SFS(in)
}

// UnionBySite concatenates the parts, keeping the first tuple at each site
// (X, Y). Partitioning overlap duplicates tuples across devices, so the
// union of their relations is deduplicated this way before an oracle runs
// Constrained over it.
func UnionBySite(parts ...[]tuple.Tuple) []tuple.Tuple {
	seen := make(map[tuple.Point]bool)
	var union []tuple.Tuple
	for _, part := range parts {
		for _, t := range part {
			if !seen[t.Pos()] {
				seen[t.Pos()] = true
				union = append(union, t)
			}
		}
	}
	return union
}

// Score rates a distributed result against the oracle's truth. A result
// tuple matches a truth tuple when they describe the same site with
// identical attributes; recall is the matched fraction of the truth and
// precision the matched fraction of the result, each 1 over an empty set.
func Score(truth, got []tuple.Tuple) (recall, precision float64) {
	bysite := make(map[tuple.Point]tuple.Tuple, len(truth))
	for _, t := range truth {
		bysite[t.Pos()] = t
	}
	matched := 0
	for _, t := range got {
		if u, ok := bysite[t.Pos()]; ok && u.Equal(t) {
			matched++
		}
	}
	recall, precision = 1, 1
	if len(truth) > 0 {
		recall = float64(matched) / float64(len(truth))
	}
	if len(got) > 0 {
		precision = float64(matched) / float64(len(got))
	}
	return recall, precision
}

// Contains reports whether sky contains a tuple equal to t.
func Contains(sky []tuple.Tuple, t tuple.Tuple) bool {
	for _, s := range sky {
		if s.Equal(t) {
			return true
		}
	}
	return false
}

// SetEqual reports whether two skylines contain the same tuples, ignoring
// order and multiplicity of exact duplicates.
func SetEqual(a, b []tuple.Tuple) bool {
	for _, t := range a {
		if !Contains(b, t) {
			return false
		}
	}
	for _, t := range b {
		if !Contains(a, t) {
			return false
		}
	}
	return true
}

// Verify checks that sky is exactly the skyline of ts: every member is
// non-dominated in ts, and every non-dominated tuple of ts is present.
// It is O(n·|sky|) and intended for tests.
func Verify(ts, sky []tuple.Tuple) bool {
	for _, s := range sky {
		if !Contains(ts, s) {
			return false
		}
		for _, t := range ts {
			if t.Dominates(s) {
				return false
			}
		}
	}
next:
	for _, t := range ts {
		for _, u := range ts {
			if u.Dominates(t) {
				continue next
			}
		}
		if !Contains(sky, t) {
			return false
		}
	}
	return true
}
