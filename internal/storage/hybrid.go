package storage

import (
	"sort"

	"manetskyline/internal/tuple"
)

// idColumn stores one attribute's per-tuple domain IDs at the narrowest
// integer width that fits the domain, mirroring the paper's use of byte IDs
// for 100-value domains (§5.1).
type idColumn interface {
	get(i int) int
	set(i, id int)
	bytes() int
	// decode widens the column into dst with the given stride, writing the
	// i-th ID at dst[i*stride]; query processing decodes once per scan so
	// the hot dominance loop reads a flat row-major array instead of
	// dispatching through this interface.
	decode(dst []uint32, stride int)
}

type byteColumn []uint8

func (c byteColumn) get(i int) int { return int(c[i]) }
func (c byteColumn) set(i, id int) { c[i] = uint8(id) }
func (c byteColumn) bytes() int    { return len(c) }
func (c byteColumn) decode(dst []uint32, stride int) {
	for i, v := range c {
		dst[i*stride] = uint32(v)
	}
}

type wordColumn []uint16

func (c wordColumn) get(i int) int { return int(c[i]) }
func (c wordColumn) set(i, id int) { c[i] = uint16(id) }
func (c wordColumn) bytes() int    { return 2 * len(c) }
func (c wordColumn) decode(dst []uint32, stride int) {
	for i, v := range c {
		dst[i*stride] = uint32(v)
	}
}

type dwordColumn []uint32

func (c dwordColumn) get(i int) int { return int(c[i]) }
func (c dwordColumn) set(i, id int) { c[i] = uint32(id) }
func (c dwordColumn) bytes() int    { return 4 * len(c) }
func (c dwordColumn) decode(dst []uint32, stride int) {
	for i, v := range c {
		dst[i*stride] = v
	}
}

func newIDColumn(n, domainSize int) idColumn {
	switch {
	case domainSize <= 1<<8:
		return make(byteColumn, n)
	case domainSize <= 1<<16:
		return make(wordColumn, n)
	default:
		return make(dwordColumn, n)
	}
}

// Hybrid is the paper's hybrid storage model (§4.1-4.2): spatial coordinates
// inline, non-spatial attributes ID-coded against per-attribute sorted
// domain arrays, and tuples kept sorted by ID vector with the
// most-distinct-values attribute as the primary key.
//
// Because every domain is sorted ascending, ID order is value order: the
// dominance test between two tuples can compare small integer IDs instead of
// raw floats, and the local minimum l_j (respectively maximum h_j) of any
// attribute is domain[0] (domain[len-1]) in O(1).
//
// The sort order strengthens the paper's "sort on one attribute" to a full
// lexicographic order on the ID vector (primary key = the chosen attribute).
// Lexicographic order has the SFS property the Figure 4 scan relies on: a
// later tuple can never dominate an earlier one, so accepted skyline tuples
// are never evicted.
type Hybrid struct {
	pos      []tuple.Point
	domains  [][]float64 // [attr] sorted ascending distinct values
	ids      []idColumn  // [attr][tuple] domain index
	dim      int
	sortAttr int // attribute with the most distinct values; primary sort key
	mbr      tuple.Rect

	// Spatial bucket grid over the MBR: buckets[cell] lists tuple indices
	// in ascending (lex) order. An optimization beyond the paper: the
	// Figure 4 scan distance-checks every tuple, while the grid lets a
	// selective range query visit only intersecting cells.
	buckets  [][]int32
	bucketsG int
}

// NewHybrid builds a hybrid relation. The input order is not preserved:
// tuples are sorted lexicographically by ID vector starting at the primary
// attribute, which is the SFS presort of §4.2.
func NewHybrid(ts []tuple.Tuple) *Hybrid {
	dim := checkBuild(ts)
	h := &Hybrid{
		domains: make([][]float64, dim),
		ids:     make([]idColumn, dim),
		dim:     dim,
		mbr:     tuple.BoundingRect(ts),
	}

	// Build each attribute's sorted distinct-value domain.
	maxDistinct := -1
	for j := 0; j < dim; j++ {
		vals := make([]float64, 0, len(ts))
		for _, t := range ts {
			vals = append(vals, t.Attrs[j])
		}
		sort.Float64s(vals)
		distinct := vals[:0]
		for i, v := range vals {
			if i == 0 || v != vals[i-1] {
				distinct = append(distinct, v)
			}
		}
		h.domains[j] = append([]float64(nil), distinct...)
		if len(distinct) > maxDistinct {
			maxDistinct = len(distinct)
			h.sortAttr = j
		}
	}

	// Encode every tuple as an ID vector.
	rows := make([][]int, len(ts))
	for i, t := range ts {
		row := make([]int, dim)
		for j := 0; j < dim; j++ {
			row[j] = sort.SearchFloat64s(h.domains[j], t.Attrs[j])
		}
		rows[i] = row
	}

	// SFS presort: lexicographic on IDs, primary key = sortAttr.
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := rows[order[a]], rows[order[b]]
		if ra[h.sortAttr] != rb[h.sortAttr] {
			return ra[h.sortAttr] < rb[h.sortAttr]
		}
		for j := 0; j < dim; j++ {
			if ra[j] != rb[j] {
				return ra[j] < rb[j]
			}
		}
		return false
	})

	h.pos = make([]tuple.Point, len(ts))
	for j := 0; j < dim; j++ {
		h.ids[j] = newIDColumn(len(ts), len(h.domains[j]))
	}
	for i, src := range order {
		h.pos[i] = ts[src].Pos()
		for j := 0; j < dim; j++ {
			h.ids[j].set(i, rows[src][j])
		}
	}
	h.buildBuckets()
	return h
}

// buildBuckets fills the spatial grid; bucket lists stay in ascending index
// order because tuples are visited in storage (lex) order.
func (h *Hybrid) buildBuckets() {
	n := len(h.pos)
	if n == 0 || h.mbr.IsEmpty() {
		return
	}
	g := 1
	for g*g*16 < n { // ~16+ tuples per cell on average
		g++
	}
	h.bucketsG = g
	h.buckets = make([][]int32, g*g)
	for i, p := range h.pos {
		h.buckets[h.bucketOf(p)] = append(h.buckets[h.bucketOf(p)], int32(i))
	}
}

func (h *Hybrid) bucketOf(p tuple.Point) int {
	g := h.bucketsG
	w := (h.mbr.MaxX - h.mbr.MinX) / float64(g)
	hh := (h.mbr.MaxY - h.mbr.MinY) / float64(g)
	col, row := 0, 0
	if w > 0 {
		col = int((p.X - h.mbr.MinX) / w)
	}
	if hh > 0 {
		row = int((p.Y - h.mbr.MinY) / hh)
	}
	if col >= g {
		col = g - 1
	}
	if row >= g {
		row = g - 1
	}
	return row*g + col
}

// RangeCandidates returns, in ascending (lex) order, the indices of every
// tuple whose grid cell intersects the disc around pos with radius d — a
// superset of the in-range tuples; callers still distance-check each. It
// returns (nil, false) when the whole relation qualifies, so callers fall
// back to the plain sequential scan.
func (h *Hybrid) RangeCandidates(pos tuple.Point, d float64) ([]int32, bool) {
	if h.bucketsG == 0 {
		return nil, false
	}
	g := h.bucketsG
	w := (h.mbr.MaxX - h.mbr.MinX) / float64(g)
	hh := (h.mbr.MaxY - h.mbr.MinY) / float64(g)
	if w <= 0 || hh <= 0 {
		return nil, false
	}
	colLo := int((pos.X - d - h.mbr.MinX) / w)
	colHi := int((pos.X + d - h.mbr.MinX) / w)
	rowLo := int((pos.Y - d - h.mbr.MinY) / hh)
	rowHi := int((pos.Y + d - h.mbr.MinY) / hh)
	if colLo < 0 {
		colLo = 0
	}
	if rowLo < 0 {
		rowLo = 0
	}
	if colHi >= g {
		colHi = g - 1
	}
	if rowHi >= g {
		rowHi = g - 1
	}
	if colLo == 0 && rowLo == 0 && colHi == g-1 && rowHi == g-1 {
		return nil, false // everything qualifies: sequential scan is cheaper
	}
	var out []int32
	for row := rowLo; row <= rowHi; row++ {
		for col := colLo; col <= colHi; col++ {
			// Skip cells entirely outside the disc.
			cell := tuple.Rect{
				MinX: h.mbr.MinX + float64(col)*w, MaxX: h.mbr.MinX + float64(col+1)*w,
				MinY: h.mbr.MinY + float64(row)*hh, MaxY: h.mbr.MinY + float64(row+1)*hh,
			}
			if cell.MinDist(pos) > d {
				continue
			}
			out = append(out, h.buckets[row*g+col]...)
		}
	}
	// Restore ascending (lex) order. For small candidate sets a sort wins;
	// for large ones a linear mark-and-sweep over the relation is cheaper
	// than n log n comparison sorting.
	if len(out)*16 < len(h.pos) {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, true
	}
	mark := make([]bool, len(h.pos))
	for _, i := range out {
		mark[i] = true
	}
	out = out[:0]
	for i, m := range mark {
		if m {
			out = append(out, int32(i))
		}
	}
	return out, true
}

// Len returns the number of tuples.
func (h *Hybrid) Len() int { return len(h.pos) }

// Dim returns the attribute count.
func (h *Hybrid) Dim() int { return h.dim }

// Pos returns the position of tuple i.
func (h *Hybrid) Pos(i int) tuple.Point { return h.pos[i] }

// ID returns the domain index of attribute j of tuple i. Comparing IDs of
// the same attribute compares the underlying values.
func (h *Hybrid) ID(i, j int) int { return h.ids[j].get(i) }

// Value decodes attribute j of tuple i through the domain array.
func (h *Hybrid) Value(i, j int) float64 { return h.domains[j][h.ids[j].get(i)] }

// Tuple materializes tuple i.
func (h *Hybrid) Tuple(i int) tuple.Tuple {
	attrs := make([]float64, h.dim)
	for j := range attrs {
		attrs[j] = h.Value(i, j)
	}
	return tuple.Tuple{X: h.pos[i].X, Y: h.pos[i].Y, Attrs: attrs}
}

// MBR returns the bounding rectangle of all positions.
func (h *Hybrid) MBR() tuple.Rect { return h.mbr }

// AttrMin returns l_j in O(1): the first entry of the sorted domain.
func (h *Hybrid) AttrMin(j int) float64 {
	if len(h.domains[j]) == 0 {
		return 0
	}
	return h.domains[j][0]
}

// AttrMax returns h_j in O(1): the last entry of the sorted domain.
func (h *Hybrid) AttrMax(j int) float64 {
	if len(h.domains[j]) == 0 {
		return 0
	}
	return h.domains[j][len(h.domains[j])-1]
}

// SortAttr returns the index of the primary sort attribute (the one with
// the most distinct values).
func (h *Hybrid) SortAttr() int { return h.sortAttr }

// DecodeIDs widens every tuple's ID vector into one row-major []uint32
// (tuple i occupies ids[i*Dim() : (i+1)*Dim()]). The local skyline scan
// decodes once and runs its dominance tests over this flat array — the
// in-register form the paper's byte IDs take on a real device.
func (h *Hybrid) DecodeIDs() []uint32 {
	return h.DecodeIDsInto(nil)
}

// DecodeIDsInto is DecodeIDs writing into dst, which is grown only when its
// capacity is insufficient; the (possibly reallocated) buffer is returned.
// Steady-state query processing reuses one buffer across calls and performs
// no allocation.
func (h *Hybrid) DecodeIDsInto(dst []uint32) []uint32 {
	n := len(h.pos) * h.dim
	if cap(dst) < n {
		dst = make([]uint32, n)
	} else {
		dst = dst[:n]
	}
	for j := 0; j < h.dim; j++ {
		h.ids[j].decode(dst[j:], h.dim)
	}
	return dst
}

// DecodeIDsFor widens only the given tuples' ID vectors, row-major in the
// order given: candidate k occupies ids[k*Dim() : (k+1)*Dim()]. Selective
// range queries decode just their candidates instead of the whole relation.
func (h *Hybrid) DecodeIDsFor(idx []int32) []uint32 {
	return h.DecodeIDsForInto(nil, idx)
}

// DecodeIDsForInto is DecodeIDsFor writing into dst under the same reuse
// contract as DecodeIDsInto.
func (h *Hybrid) DecodeIDsForInto(dst []uint32, idx []int32) []uint32 {
	n := len(idx) * h.dim
	if cap(dst) < n {
		dst = make([]uint32, n)
	} else {
		dst = dst[:n]
	}
	at := 0
	for _, i := range idx {
		for j := 0; j < h.dim; j++ {
			dst[at] = uint32(h.ids[j].get(int(i)))
			at++
		}
	}
	return dst
}

// AppendAttrs appends tuple i's decoded attribute values to dst and returns
// the extended slice, letting callers materialize skyline members into one
// shared backing array instead of one allocation per tuple.
func (h *Hybrid) AppendAttrs(dst []float64, i int) []float64 {
	for j := 0; j < h.dim; j++ {
		dst = append(dst, h.domains[j][h.ids[j].get(i)])
	}
	return dst
}

// MemBytes counts inline positions, ID columns at their native width, and
// the shared domain arrays.
func (h *Hybrid) MemBytes() int {
	b := len(h.pos) * 16
	for j := 0; j < h.dim; j++ {
		b += h.ids[j].bytes()
		b += len(h.domains[j]) * 8
	}
	return b
}

// Model returns "hybrid".
func (h *Hybrid) Model() string { return "hybrid" }
