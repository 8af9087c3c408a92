// Package localsky implements local skyline query processing on a single
// mobile device: the paper's Figure 4 algorithm over hybrid storage
// (ID-based sort-filter-skyline with spatial range checking, MBR and
// filter-dominance pre-checks, filter application, and dynamic filter
// pick-up) and a block-nested-loop evaluator over any storage model as the
// flat-storage baseline of §5.1.
//
// Both evaluators record work counters so the MANET simulator can convert
// local processing into simulated time on a 200 MHz-class device
// (internal/device) the same way the paper added estimated local costs to
// simulated communication delays (§5.2.3).
package localsky

import (
	"math"

	"manetskyline/internal/storage"
	"manetskyline/internal/tuple"
)

// Query is the device-local view of Q_ds: the originator position and the
// distance of interest. A non-positive or infinite D disables the spatial
// constraint, which is how the static pre-tests of §5.2.2-I run.
type Query struct {
	Pos tuple.Point
	D   float64
	// SpatialIndex enables the hybrid relation's spatial bucket grid for
	// the range predicate — an optimization beyond the paper's Figure 4,
	// which distance-checks every tuple sequentially. Off by default for
	// fidelity; the `spatialindex` ablation quantifies it.
	SpatialIndex bool
}

// Unconstrained reports whether the query has no effective spatial bound.
func (q Query) Unconstrained() bool {
	return q.D <= 0 || math.IsInf(q.D, 1)
}

// Covers reports whether every position inside r passes the query's range
// predicate, so that a scan over a relation bounded by r distance-checks
// every tuple and rejects none. The farthest corner is tested with the
// predicate itself: coordinate differences, squares and sums are monotone
// in floating point, so no tuple inside r can fail where the corner passes.
func (q Query) Covers(r tuple.Rect) bool {
	return q.Unconstrained() || (!r.IsEmpty() && q.inRange(r.FarCorner(q.Pos)))
}

// inRange applies the spatial predicate.
func (q Query) inRange(p tuple.Point) bool {
	return q.Unconstrained() || q.Pos.WithinDist(p, q.D)
}

// VDRFunc scores a tuple's pruning potential: the volume of its dominating
// region under whichever estimation mode the caller selected (§3.2-3.3).
// A nil VDRFunc disables dynamic filter pick-up.
type VDRFunc func(tuple.Tuple) float64

// Stats counts the work one local evaluation performed; the device cost
// model turns these into simulated seconds.
type Stats struct {
	// Scanned is the number of tuples visited by the scan.
	Scanned int
	// InRange is the number of tuples that passed the spatial predicate.
	InRange int
	// IDCmp is the number of integer ID comparisons (hybrid evaluator).
	IDCmp int
	// ValCmp is the number of raw attribute-value comparisons.
	ValCmp int
	// DistChecks is the number of spatial distance evaluations.
	DistChecks int
	// SkippedMBR is set when the MBR pre-check rejected the whole relation.
	SkippedMBR bool
	// SkippedFilter is set when the filter-dominates-relation pre-check
	// rejected the whole relation in O(n) attribute comparisons.
	SkippedFilter bool
}

// Add accumulates counters.
func (s *Stats) Add(o Stats) {
	s.Scanned += o.Scanned
	s.InRange += o.InRange
	s.IDCmp += o.IDCmp
	s.ValCmp += o.ValCmp
	s.DistChecks += o.DistChecks
	s.SkippedMBR = s.SkippedMBR || o.SkippedMBR
	s.SkippedFilter = s.SkippedFilter || o.SkippedFilter
}

// Result is the outcome of one local skyline evaluation.
type Result struct {
	// Skyline is SK'_i: the local skyline after filter pruning, the tuples
	// that would be transmitted back toward the originator.
	Skyline []tuple.Tuple
	// Unreduced is |SK_i|: the local skyline size before filter pruning;
	// the denominator contribution of the data reduction rate (Formula 1).
	Unreduced int
	// Filter is the filtering tuple to forward: the input filter, or a
	// local tuple with a strictly larger VDR when dynamic pick-up found one.
	Filter *tuple.Tuple
	// FilterVDR is the VDR score of Filter (0 when Filter is nil).
	FilterVDR float64
	// Stats holds the work counters.
	Stats Stats
}

// HybridSkylineScratch runs the paper's Figure 4 algorithm against hybrid
// storage, evaluating through the given Scratch.
//
// Deviations from the figure's pseudo-code, both required for correctness:
//
//   - The whole-relation skip fires only when the filter strictly improves
//     on some attribute's local minimum l_j (all flt_j ≤ l_j and one
//     strict). The figure skips on all flt_j ≤ l_j alone, which would drop
//     a local site whose attribute vector exactly equals the filter's —
//     such a site is a legitimate member of the final skyline.
//   - Dominance during the scan and filter pruning use the standard
//     definition (no worse everywhere, better somewhere) rather than the
//     figure's all-strictly-better test, which under integer domains both
//     misses prunable tuples and, in the scan, would admit dominated ones.
//
// The filter tuple must satisfy the query's spatial constraint (it is always
// drawn from some device's constrained local skyline), which is what makes
// pruning with it safe.
//
// The Scratch eliminates every steady-state heap allocation on the
// non-spatial-index path: the decoded-ID buffer, the accepted-slot slice,
// and the result tuples (including their attribute storage) all live in sc
// and are reused across calls. The returned Result.Skyline aliases sc and
// is valid only until sc's next use; Result.Filter is always detached and
// safe to retain. A nil sc falls back to per-call allocation, and the
// result is then the caller's.
//
// The evaluation is three steps, each callable on its own: Precheck (the
// whole-relation tests), the ID-based SFS scan (ScanAll is its
// whole-relation form), and Reduce (filter application and pick-up over the
// scan's accepted slots).
func HybridSkylineScratch(rel *storage.Hybrid, q Query, flt *tuple.Tuple, vdr VDRFunc, sc *Scratch) Result {
	res, skipped := Precheck(rel, q, flt, vdr)
	if skipped {
		return res
	}
	order, sky := scan(rel, q, sc, &res.Stats)
	reduce(rel, order, sky, flt, vdr, sc, &res)
	return res
}

// Precheck runs Figure 4's two whole-relation tests, which cost O(1) and
// O(dim): the MBR lies entirely out of range, or the filter strictly
// dominates the relation's best conceivable tuple. It returns the Result to
// continue with (Filter and FilterVDR set, ValCmp charged) and whether the
// relation was skipped, in which case that Result is final.
func Precheck(rel *storage.Hybrid, q Query, flt *tuple.Tuple, vdr VDRFunc) (Result, bool) {
	res := Result{Filter: flt}
	if flt != nil && vdr != nil {
		res.FilterVDR = vdr(*flt)
	}

	// MBR pre-check: the device's data is entirely out of range.
	if !q.Unconstrained() && rel.MBR().MinDist(q.Pos) > q.D {
		res.Stats.SkippedMBR = true
		return res, true
	}

	// Filter pre-check: the best conceivable local tuple (l_1..l_n) is
	// strictly dominated by the filter, so no local tuple can survive.
	if flt != nil && rel.Len() > 0 && flt.Dim() == rel.Dim() {
		domAll := true
		strict := false
		for j := 0; j < rel.Dim(); j++ {
			res.Stats.ValCmp++
			lj := rel.AttrMin(j)
			if flt.Attrs[j] > lj {
				domAll = false
				break
			}
			if flt.Attrs[j] < lj {
				strict = true
			}
		}
		if domAll && strict {
			res.Stats.SkippedFilter = true
			return res, true
		}
	}
	return res, false
}

// ScanAll runs the ID-based SFS scan over the whole relation with no range
// predicate and returns the accepted slots — SK_i's storage indices in
// ascending order — and the number of ID comparisons spent. The slots alias
// sc when one is given. A query that Covers the relation's MBR accepts
// exactly these slots with exactly this many comparisons: the predicate
// rejects nothing, so the dominance tests are the same.
func ScanAll(rel *storage.Hybrid, sc *Scratch) (slots []int, idCmp int) {
	var st Stats
	_, slots = scan(rel, Query{}, sc, &st)
	return slots, st.IDCmp
}

// scan is the ID-based SFS scan. It returns the accepted slots and, on the
// spatial-index path, the candidate order those slots index into (nil when
// slots are storage indices), and adds its counters to st.
func scan(rel *storage.Hybrid, q Query, sc *Scratch, st *Stats) (order []int32, sky []int) {
	// The relation is lexicographically sorted by ID vector, so accepted
	// tuples are never evicted. IDs are decoded once into a flat row-major
	// array; the dominance loop then runs over plain integers — the
	// in-register form the paper's byte IDs take on a real device. Because
	// the presort makes every accepted tuple ≤ the candidate on the sorted
	// attribute, that attribute only contributes a strictness check (the
	// Figure 4 comparison skip).
	dim := rel.Dim()
	sa := rel.SortAttr()

	// Candidate enumeration: the paper's sequential scan, or the spatial
	// bucket grid when the caller opted in and the range is selective. The
	// grid yields indices in ascending order, preserving the lex-order
	// property the SFS scan needs, and only the candidates are ID-decoded.
	if q.SpatialIndex && !q.Unconstrained() {
		if cand, ok := rel.RangeCandidates(q.Pos, q.D); ok {
			order = cand
		}
	}
	var ids []uint32
	count := rel.Len()
	if order != nil {
		count = len(order)
		if sc != nil {
			sc.ids = rel.DecodeIDsForInto(sc.ids, order)
			ids = sc.ids
		} else {
			ids = rel.DecodeIDsFor(order)
		}
	} else if sc != nil {
		sc.ids = rel.DecodeIDsInto(sc.ids)
		ids = sc.ids
	} else {
		ids = rel.DecodeIDs()
	}

	if sc != nil {
		sky = sc.sky[:0]
	}
	constrained := !q.Unconstrained()
	scanned, inRange, distChecks, idCmp := 0, 0, 0, 0
	for s := 0; s < count; s++ {
		scanned++
		if constrained {
			i := s
			if order != nil {
				i = int(order[s])
			}
			distChecks++
			if !q.inRange(rel.Pos(i)) {
				continue
			}
		}
		inRange++
		var dominated bool
		var cmp int
		if dim == 2 {
			dominated, cmp = dominated2(ids, sky, s, sa)
		} else {
			dominated, cmp = dominatedN(ids, sky, s, dim, sa)
		}
		idCmp += cmp
		if !dominated {
			sky = append(sky, s)
		}
	}
	if sc != nil {
		sc.sky = sky
	}
	st.Scanned += scanned
	st.InRange += inRange
	st.DistChecks += distChecks
	st.IDCmp += idCmp
	return order, sky
}

// Reduce completes an evaluation from the scan's accepted slots (storage
// indices, as ScanAll returns them): it sets res.Unreduced, applies the
// filter res.Filter, materializes the survivors into res.Skyline under
// HybridSkylineScratch's aliasing contract, and performs the dynamic filter
// pick-up. res must come from Precheck with the same filter and vdr. slots
// is only read, and may be shared between concurrent calls; a caller that
// keeps slots for long may hold them at half width.
func Reduce[S int | int32](rel *storage.Hybrid, slots []S, vdr VDRFunc, sc *Scratch, res *Result) {
	reduce(rel, nil, slots, res.Filter, vdr, sc, res)
}

func reduce[S int | int32](rel *storage.Hybrid, order []int32, sky []S, flt *tuple.Tuple, vdr VDRFunc, sc *Scratch, res *Result) {
	dim := rel.Dim()
	res.Unreduced = len(sky)

	// Filter application and max-VDR pick-up in one pass over SK_i. With a
	// Scratch, survivors are materialized into one pre-sized backing array
	// (pre-sizing keeps earlier tuples' Attrs slices valid as it fills).
	var out []tuple.Tuple
	var attrs []float64
	if sc != nil {
		out = sc.tuples[:0]
		if need := len(sky) * dim; cap(sc.attrs) < need {
			sc.attrs = make([]float64, 0, need)
		}
		attrs = sc.attrs[:0]
	}
	bestSlot := -1
	bestVDR := math.Inf(-1)
	for _, k := range sky {
		i := int(k)
		if order != nil {
			i = int(order[k])
		}
		var t tuple.Tuple
		if sc != nil {
			start := len(attrs)
			attrs = rel.AppendAttrs(attrs, i)
			t = tuple.Tuple{X: rel.Pos(i).X, Y: rel.Pos(i).Y, Attrs: attrs[start:len(attrs):len(attrs)]}
		} else {
			t = rel.Tuple(i)
		}
		if flt != nil {
			res.Stats.ValCmp += dim
			if flt.Dominates(t) {
				if sc != nil {
					attrs = attrs[:len(attrs)-dim]
				}
				continue
			}
		}
		out = append(out, t)
		if vdr != nil {
			if v := vdr(t); v > bestVDR {
				bestVDR = v
				bestSlot = i
			}
		}
	}
	if sc != nil {
		sc.tuples = out
		sc.attrs = attrs
	}
	res.Skyline = out

	// Dynamic filter update (§3.4): adopt the local tuple when it prunes
	// harder than the current filter. The picked tuple is re-materialized
	// on the heap so the filter outlives any Scratch reuse (it travels in
	// forwarded queries).
	if bestSlot >= 0 && (flt == nil || bestVDR > res.FilterVDR) {
		t := rel.Tuple(bestSlot)
		res.Filter = &t
		res.FilterVDR = bestVDR
	}
}

// dominated2 is the dominance kernel for the dominant dim==2 case: with a
// single attribute besides the sort key, the generic per-attribute loop
// collapses to one comparison plus the sorted-attribute tie-break. It
// returns whether slot s is dominated by any accepted slot and how many ID
// comparisons that took (identical to the generic kernel's count, so the
// device cost model sees the same work).
func dominated2(ids []uint32, sky []int, s, sa int) (bool, int) {
	j := 1 - sa
	b := ids[2*s+j]
	bs := ids[2*s+sa]
	cmp := 0
	for _, k := range sky {
		cmp++
		a := ids[2*k+j]
		if a > b {
			continue // not ≤ on the free attribute: k cannot dominate s
		}
		if a < b {
			return true, cmp // ≤ everywhere (presort) and strictly better
		}
		// Full tie on the free attribute: dominance hinges on the sorted
		// attribute, the one comparison the presort usually skips.
		cmp++
		if ids[2*k+sa] < bs {
			return true, cmp
		}
	}
	return false, cmp
}

// dominatedN is the general dominance kernel over the flat row-major ID
// array, preserving the Figure 4 comparison skip on the sorted attribute.
func dominatedN(ids []uint32, sky []int, s, dim, sa int) (bool, int) {
	row := ids[s*dim : (s+1)*dim]
	cmp := 0
	for _, k := range sky {
		krow := ids[k*dim : (k+1)*dim]
		leqAll := true
		strict := false
		for j := 0; j < dim; j++ {
			if j == sa {
				continue
			}
			cmp++
			a, b := krow[j], row[j]
			if a > b {
				leqAll = false
				break
			}
			if a < b {
				strict = true
			}
		}
		if leqAll && !strict {
			// Full tie on the other attributes: dominance now hinges on
			// the sorted attribute, the one comparison the presort
			// usually makes unnecessary.
			cmp++
			strict = krow[sa] < row[sa]
		}
		if leqAll && strict {
			return true, cmp
		}
	}
	return false, cmp
}

// BNLSkylineScratch evaluates the same local query with block-nested-loop
// over any storage model — the unindexed, unsorted baseline the paper runs
// on flat storage. Every dominance test dereferences and compares raw
// attribute values, which is precisely the cost hybrid storage avoids. The
// window and result buffers are drawn from sc under the same aliasing
// contract as HybridSkylineScratch (nil allocates per call); the
// indirection through the storage model is the baseline's point, so only
// the bookkeeping, not the comparisons, changes with a Scratch.
func BNLSkylineScratch(rel storage.Relation, q Query, flt *tuple.Tuple, vdr VDRFunc, sc *Scratch) Result {
	res := Result{Filter: flt}
	if flt != nil && vdr != nil {
		res.FilterVDR = vdr(*flt)
	}
	if !q.Unconstrained() && rel.MBR().MinDist(q.Pos) > q.D {
		res.Stats.SkippedMBR = true
		return res
	}

	// Flat storage exposes its rows directly (raw float comparisons, no
	// indirection); domain and ring storage pay their per-access pointer
	// chase or ring walk through Value on every comparison, which is
	// exactly the cost the §4.1 ablation quantifies.
	dim := rel.Dim()
	value := rel.Value
	if f, ok := rel.(*storage.Flat); ok {
		rows := f.Rows()
		value = func(i, j int) float64 { return rows[i][j] }
	}
	dominates := func(a, b int) bool {
		better := false
		for j := 0; j < dim; j++ {
			res.Stats.ValCmp++
			av, bv := value(a, j), value(b, j)
			if av > bv {
				return false
			}
			if av < bv {
				better = true
			}
		}
		return better
	}

	var window []int
	if sc != nil {
		window = sc.sky[:0]
	}
next:
	for i := 0; i < rel.Len(); i++ {
		res.Stats.Scanned++
		if !q.Unconstrained() {
			res.Stats.DistChecks++
			if !q.inRange(rel.Pos(i)) {
				continue
			}
		}
		res.Stats.InRange++
		for _, w := range window {
			if dominates(w, i) {
				continue next
			}
		}
		keep := window[:0]
		for _, w := range window {
			if !dominates(i, w) {
				keep = append(keep, w)
			}
		}
		window = append(keep, i)
	}
	if sc != nil {
		sc.sky = window
	}
	res.Unreduced = len(window)

	var out []tuple.Tuple
	var attrs []float64
	if sc != nil {
		out = sc.tuples[:0]
		if need := len(window) * dim; cap(sc.attrs) < need {
			sc.attrs = make([]float64, 0, need)
		}
		attrs = sc.attrs[:0]
	}
	bestIdx := -1
	bestVDR := math.Inf(-1)
	for _, w := range window {
		var t tuple.Tuple
		if sc != nil {
			start := len(attrs)
			for j := 0; j < dim; j++ {
				attrs = append(attrs, value(w, j))
			}
			p := rel.Pos(w)
			t = tuple.Tuple{X: p.X, Y: p.Y, Attrs: attrs[start:len(attrs):len(attrs)]}
		} else {
			t = rel.Tuple(w)
		}
		if flt != nil {
			res.Stats.ValCmp += dim
			if flt.Dominates(t) {
				if sc != nil {
					attrs = attrs[:len(attrs)-dim]
				}
				continue
			}
		}
		out = append(out, t)
		if vdr != nil {
			if v := vdr(t); v > bestVDR {
				bestVDR = v
				bestIdx = w
			}
		}
	}
	if sc != nil {
		sc.tuples = out
		sc.attrs = attrs
	}
	res.Skyline = out
	if bestIdx >= 0 && (flt == nil || bestVDR > res.FilterVDR) {
		t := rel.Tuple(bestIdx)
		res.Filter = &t
		res.FilterVDR = bestVDR
	}
	return res
}
